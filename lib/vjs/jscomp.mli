(** The vjs evaluator: each source is compiled once into closures over
    resolved slots, then run as often as needed.

    A resolve pass maps every identifier to the (depth, slot) pairs of
    the scopes that declare it; each AST node becomes one closure. Every
    evaluated node charges {!cost_per_node} cycles through the runtime's
    charge hook, in pre-order, so the same program runs with identical
    semantics and identical charged cycles on the host (baseline) and
    inside a virtine — only where the cycles land differs. A step budget
    bounds hostile scripts.

    Scoping is the engine's own, not ES semantics: a [var] binds when it
    executes, in the frame of the block it appears in; a name not yet
    bound there is looked up in the enclosing scopes and then among the
    globals; assigning a name bound nowhere creates a global. *)

val cost_per_node : int

type rt
(** One engine's runtime state: the globals, the step counter and the
    charge hook. A compiled {!program} runs in any number of runtimes. *)

val create_rt : charge:(int -> unit) -> max_steps:int -> rt

val globals : rt -> (string, Jsvalue.t) Hashtbl.t
(** The global object, by name: builtins, top-level [var]s and
    functions, and implicit globals. *)

val reset_steps : rt -> unit
(** The budget bounds a single top-level entry, not the engine lifetime;
    {!Engine.load} and {!Engine.call} reset it. *)

val steps : rt -> int
(** Nodes evaluated since the last {!reset_steps}. *)

type program

type error =
  | Break_outside_loop  (** a [break] not inside a loop of its own function *)
  | Continue_outside_loop  (** likewise for [continue] *)

val error_message : error -> string
(** The [SyntaxError] text {!Engine} reports. *)

val program : Jsast.program -> (program, error) result
(** Resolve and compile; charges nothing. A [break] or [continue] with
    no enclosing loop in the same function (at top level, in a function
    body, or in a function called from a loop) is rejected here, so
    neither can unwind past a function or program boundary. Every other
    error is a runtime error. *)

val run : rt -> program -> (Jsvalue.t, string) result
(** Bind the top-level function declarations (charging nothing), then
    run the other statements in order in the global scope. The result is
    the value of the last top-level expression statement, or
    [Undefined]. Runtime errors and uncaught [throw]s are [Error]s
    (["uncaught: "] and the thrown value, for the latter). *)

val apply : Jsvalue.t -> Jsvalue.t array -> (Jsvalue.t, string) result
(** Call a [Fun] or [Native] value, with errors as in {!run}. *)
