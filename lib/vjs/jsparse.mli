(** Parser for the vjs JavaScript subset. *)

exception Error of { line : int; msg : string }

val parse : (Jslex.token * int) list -> Jsast.program
(** Parse the output of {!Jslex.tokenize}.
    @raise Error on malformed input. *)
