(** Duktape-style embedding API (§6.5).

    Mirrors the lifecycle the paper's baseline measures: allocate an
    engine context (expensive: heap + built-in objects), populate native
    function bindings, evaluate code, and tear the context down. Each
    stage charges its calibrated cost through the engine's charge hook so
    the same engine can run on the host (baseline) or inside a virtine
    (costs accrue as guest cycles), and so snapshot / no-teardown
    optimizations skip exactly the right work. *)

type t

val context_alloc_cycles : int
(** Allocating the context: heap arena, built-in objects, string interning
    tables. Dominant Duktape setup cost. *)

val binding_cycles : int
(** Registering the native bindings for one context. *)

val teardown_cycles : int
(** Freeing the context (walks and frees the heap). *)

val parse_cycles_per_token : int
val eval_cycles_per_node : int

val create : ?charge:(int -> unit) -> unit -> t
(** Allocate a context and populate default bindings (Math, String,
    parseInt, ...); charges [context_alloc_cycles + binding_cycles]. *)

val register : t -> string -> (Jsvalue.t list -> Jsvalue.t) -> unit
(** Bind a native function into the global object (duk_push_c_function). *)

type compiled
(** A source lexed and parsed once and compiled ({!Jscomp.program}), or
    the syntax error it failed with; it records its token count. *)

val compile : string -> compiled
(** Host-side and free: nothing is charged until {!load}. *)

val load : t -> compiled -> (Jsvalue.t, string) result
(** Execute a compiled script in the global scope. Charges
    [parse_cycles_per_token] per token first (nothing if the source did
    not lex), then fails with the syntax error or runs, charging
    per-node evaluation costs. The result is the value of the last
    top-level expression statement, or [Undefined]. *)

val eval : t -> string -> (Jsvalue.t, string) result
(** [load t (compile src)]. *)

val call : t -> string -> Jsvalue.t list -> (Jsvalue.t, string) result
(** Call a global function by name. *)

val destroy : t -> unit
(** Charge the teardown cost. The no-teardown optimization simply does
    not call this. *)

val set_charge : t -> (int -> unit) -> unit
(** Swap the charge hook: a snapshot-restored engine was rebuilt without
    charging (the restore memcpy carries that cost), but its subsequent
    execution must charge the current invocation. *)

val console_output : t -> string
(** Text printed via [print]/[console_log]. *)
