(* Runtime values. Arrays are growable vectors; objects are string-keyed
   hash tables; a function is a closure the engine built over its
   defining scope. *)

type t =
  | Undefined
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of vec
  | Obj of (string, t) Hashtbl.t
  | Fun of fn
  | Native of string * (t list -> t)

and vec = { mutable items : t array; mutable len : int }

and fn = { fname : string; call : t array -> t }

exception Js_error of string

let vec_create () = { items = Array.make 8 Undefined; len = 0 }

let vec_of_list vs =
  let items = Array.of_list vs in
  { items = (if Array.length items = 0 then Array.make 8 Undefined else items);
    len = List.length vs }

let vec_get v i = if i < 0 || i >= v.len then Undefined else v.items.(i)

let vec_grow v cap =
  if cap > Array.length v.items then begin
    let items = Array.make (max cap (2 * Array.length v.items)) Undefined in
    Array.blit v.items 0 items 0 v.len;
    v.items <- items
  end

let vec_set v i x =
  if i < 0 then raise (Js_error "negative array index")
  else begin
    vec_grow v (i + 1);
    v.items.(i) <- x;
    if i >= v.len then v.len <- i + 1
  end

let vec_push v x = vec_set v v.len x

let vec_pop v =
  if v.len = 0 then Undefined
  else begin
    v.len <- v.len - 1;
    v.items.(v.len)
  end

let vec_to_list v = List.init v.len (fun i -> v.items.(i))

(* Numbers are immutable, so every byte array shares one [Num] per value;
   the table is built on first use, like [Jscomp]'s one-character strings. *)
let byte_nums = lazy (Array.init 256 (fun i -> Num (float_of_int i)))

let bytes_value b =
  let n = Bytes.length b in
  if n = 0 then Arr (vec_create ())
  else
    let nums = Lazy.force byte_nums in
    Arr { items = Array.init n (fun i -> nums.(Bytes.get_uint8 b i)); len = n }

let type_name = function
  | Undefined -> "undefined"
  | Null -> "object"
  | Bool _ -> "boolean"
  | Num _ -> "number"
  | Str _ -> "string"
  | Arr _ | Obj _ -> "object"
  | Fun _ | Native _ -> "function"

let truthy = function
  | Undefined | Null -> false
  | Bool b -> b
  | Num n -> n <> 0.0 && not (Float.is_nan n)
  | Str s -> s <> ""
  | Arr _ | Obj _ | Fun _ | Native _ -> true

(* Number::toString: the fewest significant digits that read back as
   [n], written out plainly below 1e21 and from 1e-6 up, with an
   exponent otherwise. Integers below 1e15 are exact in those digits. *)
let number_to_string n =
  if Float.is_integer n && Float.abs n < 1e15 then
    if n = 0.0 then "0" (* -0 too *) else Printf.sprintf "%.0f" n
  else if Float.is_nan n then "NaN"
  else if n = Float.infinity then "Infinity"
  else if n = Float.neg_infinity then "-Infinity"
  else begin
    let a = Float.abs n in
    let rec shortest p =
      let s = Printf.sprintf "%.*e" p a in
      if p >= 16 || float_of_string s = a then s else shortest (p + 1)
    in
    let s = shortest 0 in
    let e = String.index s 'e' in
    (* [a] = 0.[digits] * 10^[point] *)
    let digits = String.concat "" (String.split_on_char '.' (String.sub s 0 e)) in
    let point = int_of_string (String.sub s (e + 1) (String.length s - e - 1)) + 1 in
    let k = String.length digits in
    let body =
      if k <= point && point <= 21 then digits ^ String.make (point - k) '0'
      else if 0 < point && point <= 21 then
        String.sub digits 0 point ^ "." ^ String.sub digits point (k - point)
      else if -6 < point && point <= 0 then "0." ^ String.make (-point) '0' ^ digits
      else
        let mantissa =
          if k = 1 then digits else String.sub digits 0 1 ^ "." ^ String.sub digits 1 (k - 1)
        in
        Printf.sprintf "%se%s%d" mantissa (if point > 0 then "+" else "-") (abs (point - 1))
    in
    if n < 0.0 then "-" ^ body else body
  end

let rec to_string = function
  | Undefined -> "undefined"
  | Null -> "null"
  | Bool b -> string_of_bool b
  | Num n -> number_to_string n
  | Str s -> s
  | Arr v -> String.concat "," (List.map to_string (vec_to_list v))
  | Obj _ -> "[object Object]"
  | Fun f -> Printf.sprintf "function %s() { ... }" f.fname
  | Native (n, _) -> Printf.sprintf "function %s() { [native code] }" n

(* StringToNumber: only JS numeric literals convert; OCaml's own syntax
   ([1_000], [inf], [nan], [0o17]) is NaN *)
let string_to_number s =
  let is_space c = c = ' ' || c = '\t' || c = '\n' || c = '\r' || c = '\011' || c = '\012' in
  let n = String.length s in
  let lo = ref 0 and hi = ref n in
  while !lo < !hi && is_space s.[!lo] do incr lo done;
  while !hi > !lo && is_space s.[!hi - 1] do decr hi done;
  let s = String.sub s !lo (!hi - !lo) in
  let n = String.length s in
  let is_digit c = c >= '0' && c <= '9' in
  let is_hex c = is_digit c || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F') in
  (* [i] past the digits starting at [i] *)
  let rec digits i = if i < n && is_digit s.[i] then digits (i + 1) else i in
  let decimal () =
    let i = if n > 0 && (s.[0] = '+' || s.[0] = '-') then 1 else 0 in
    let j = digits i in
    let k = if j < n && s.[j] = '.' then digits (j + 1) else j in
    let mantissa = j > i || k > j + 1 in
    let e =
      if mantissa && k < n && (s.[k] = 'e' || s.[k] = 'E') then
        let x = if k + 1 < n && (s.[k + 1] = '+' || s.[k + 1] = '-') then k + 2 else k + 1 in
        let y = digits x in
        if y > x then y else -1
      else k
    in
    mantissa && e = n
  in
  if n = 0 then 0.0
  else if s = "Infinity" || s = "+Infinity" then Float.infinity
  else if s = "-Infinity" then Float.neg_infinity
  else if n > 2 && s.[0] = '0' && (s.[1] = 'x' || s.[1] = 'X') then
    if String.for_all is_hex (String.sub s 2 (n - 2)) then float_of_string s else Float.nan
  else if decimal () then float_of_string s
  else Float.nan

let to_number = function
  | Undefined -> Float.nan
  | Null -> 0.0
  | Bool true -> 1.0
  | Bool false -> 0.0
  | Num n -> n
  | Str s -> string_to_number s
  | Arr _ | Obj _ | Fun _ | Native _ -> Float.nan

(* ToInt32: truncate, reduce modulo 2^32 (exact in floating point), then
   keep the low 32 bits as a signed value *)
let to_int32 v =
  let n = to_number v in
  if Float.is_finite n then Int32.to_int (Int32.of_int (int_of_float (Float.rem (Float.trunc n) 4294967296.0)))
  else 0

let strict_equal a b =
  match (a, b) with
  | Undefined, Undefined | Null, Null -> true
  | Bool x, Bool y -> x = y
  | Num x, Num y -> x = y
  | Str x, Str y -> x = y
  | Arr x, Arr y -> x == y
  | Obj x, Obj y -> x == y
  | Fun x, Fun y -> x == y
  | Native (_, x), Native (_, y) -> x == y
  | _ -> false

let loose_equal a b =
  match (a, b) with
  | (Undefined | Null), (Undefined | Null) -> true
  | Num _, Str _ -> to_number a = to_number b
  | Str _, Num _ -> to_number a = to_number b
  | Bool _, _ -> to_number a = to_number b
  | _, Bool _ -> to_number a = to_number b
  | _ -> strict_equal a b
