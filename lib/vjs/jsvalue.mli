(** Runtime values of the vjs JavaScript engine.

    Numbers are IEEE doubles, arrays are growable vectors, objects are
    string-keyed hash tables, and a function is a closure the engine
    built over its defining scope. [Native] embeds host functions (the
    [duk_push_c_function] analogue). *)

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
(** [call] binds the arguments to the parameters (missing ones are
    [Undefined]) and runs the body in the engine that created the value. *)

exception Js_error of string
(** Runtime errors (reference errors, type errors, step-budget
    exhaustion). Catchable by guest [try]. *)

(** {1 Vectors} *)

val vec_create : unit -> vec
val vec_of_list : t list -> vec
val vec_get : vec -> int -> t
(** Out-of-range reads yield [Undefined], as in JS. *)

val vec_set : vec -> int -> t -> unit
(** Grows the vector (holes become [Undefined]).
    @raise Js_error on a negative index. *)

val vec_push : vec -> t -> unit
val vec_pop : vec -> t
val vec_to_list : vec -> t list

val bytes_value : bytes -> t
(** An array of the byte values, as the engine's callers pass binary
    input. *)

(** {1 Coercions (ECMA-flavoured)} *)

val type_name : t -> string
(** The [typeof] string. *)

val truthy : t -> bool
val to_string : t -> string
val number_to_string : float -> string
(** As JS's [Number.prototype.toString()]: the shortest digits that
    round-trip ([1/3] is [0.3333333333333333]), plain from 1e-6 up to
    1e21 and in exponent form ([1e+21], [1.5e-7]) outside; [-0] is
    ["0"]; [NaN], [Infinity] and [-Infinity] as named. *)

val to_number : t -> float
(** Strings convert only from JS numeric syntax: trimmed decimal with an
    optional exponent, [0x] hex or [±Infinity]; the empty string is 0
    and anything else is [NaN]. *)

val to_int32 : t -> int
(** ECMA-262 ToInt32 (truncate, wrap modulo 2{^32}, re-sign), used by the
    bitwise operators; the result is in \[-2{^31}, 2{^31}). *)

val strict_equal : t -> t -> bool   (** [===]: no coercion, reference equality for objects. *)
val loose_equal : t -> t -> bool    (** [==]: number/string/bool coercion. *)
