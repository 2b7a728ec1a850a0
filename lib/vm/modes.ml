type t = Real | Protected | Long

let width_bits = function Real -> 16 | Protected -> 32 | Long -> 64

let address_limit = function
  | Real -> 1 lsl 20
  | Protected -> 1 lsl 32
  | Long -> 1 lsl 30

let mask_bits = function Real -> 0xFFFFL | Protected -> 0xFFFFFFFFL | Long -> -1L
let sext_shift mode = 64 - width_bits mode

let mask mode v = Int64.logand v (mask_bits mode)

let sext mode v =
  let s = sext_shift mode in
  Int64.shift_right (Int64.shift_left v s) s

let to_string = function Real -> "real" | Protected -> "protected" | Long -> "long"

let of_string = function
  | "real" -> Some Real
  | "protected" -> Some Protected
  | "long" -> Some Long
  | _ -> None

let pp ppf m = Format.pp_print_string ppf (to_string m)

let equal (a : t) (b : t) = a = b

let all = [ Real; Protected; Long ]
