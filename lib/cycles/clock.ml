(* The count is a native int: 63 bits hold over 50 years of cycles at
   2.69 GHz, and an unboxed field keeps [advance_int] — called for
   every translated block and every vjs node — allocation-free. The
   int64 API converts at the edge. *)
type t = { mutable cycles : int; freq_ghz : float }

let create ?(freq_ghz = 2.69) () = { cycles = 0; freq_ghz }

let now t = Int64.of_int t.cycles

let negative () = invalid_arg "Clock.advance: negative cycles"
let overflow () = invalid_arg "Clock.advance: cycle count overflow"

let advance_int t c =
  if c < 0 then negative ();
  if c > max_int - t.cycles then overflow ();
  t.cycles <- t.cycles + c

(* range-check before [Int64.to_int], which would wrap *)
let advance t c =
  if Int64.compare c 0L < 0 then negative ();
  if Int64.compare c (Int64.of_int max_int) > 0 then overflow ();
  advance_int t (Int64.to_int c)

let freq_ghz t = t.freq_ghz

let to_ns t c = Int64.to_float c /. t.freq_ghz

let to_us t c = to_ns t c /. 1e3

let to_ms t c = to_ns t c /. 1e6

let of_us t us = Int64.of_float (us *. t.freq_ghz *. 1e3)

let elapsed_since t start = Int64.sub (now t) start
