(** Abstract syntax for the vjs JavaScript subset.

    Covered: var/let/const, functions (declarations and expressions,
    closures), if/while/for, break/continue/return, throw/try/catch/
    finally, arrays, object literals, property and index access, method
    calls, the usual operators (strict and loose equality, bitwise with
    ToInt32), ternary and typeof. [this], prototypes and classes are out
    of scope — the paper's workloads do not need them. *)

type expr =
  | Enum of float
  | Estr of string
  | Ebool of bool
  | Enull
  | Eundefined
  | Eident of string
  | Earray of expr list
  | Eobject of (string * expr) list
  | Efun of string list * stmt list       (** function expression *)
  | Ecall of expr * expr list
  | Emethod of expr * string * expr list  (** receiver.name(args) *)
  | Eprop of expr * string
  | Eindex of expr * expr
  | Eunop of string * expr
  | Ebinop of string * expr * expr
  | Eassign of expr * expr
  | Econd of expr * expr * expr
  | Etypeof of expr

and stmt =
  | Sexpr of expr
  | Svar of string * expr option
  | Sif of expr * stmt list * stmt list
  | Swhile of expr * stmt list
  | Sfor of stmt option * expr option * expr option * stmt list
  | Sreturn of expr option
  | Sbreak
  | Scontinue
  | Sfundecl of string * string list * stmt list
  | Sblock of stmt list
  | Sthrow of expr
  | Stry of stmt list * (string * stmt list) option * stmt list
      (** try body, optional catch (binding, body), finally body *)

type program = stmt list
