(** The campaign driver: corpus scheduling, coverage accounting,
    finding dedup, shrinking, and fixture emission.

    With [iters] set (and no [time_budget]) a campaign is a pure
    function of its [seed]: same seed → same corpus, same coverage bit
    count, same findings in the same order. A [time_budget] bounds wall
    time instead; its iteration count is inherently non-deterministic
    (each iteration is still seeded). *)

type config = {
  seed : int;
  iters : int option;
  time_budget : float option;  (** seconds, measured with [now] *)
  now : unit -> float;
  corpus_dir : string option;  (** load + persist coverage-novel cases *)
  fixtures_out : string option;  (** write shrunk reproducer [.vxr]s *)
  canary : Oracle.canary option;
  max_findings : int;  (** stop after this many distinct findings *)
  shrink_budget : int;
  log : string -> unit;
}

val default_config : config
(** 200 iterations, seed 0xF022, no persistence, no canary. *)

type finding = {
  f_class : Oracle.fclass;
  f_detail : string;
  f_case : Corpus.case;  (** as found *)
  f_shrunk : Corpus.case;  (** after delta debugging *)
  f_fixture : string option;  (** written reproducer path *)
}

type summary = {
  iterations : int;
  corpus_size : int;
  coverage_bits : int;
  findings : finding list;
  skipped : (string * string) list;  (** unloadable corpus files *)
}

val run : config -> summary

val check_fixtures :
  dir:string -> log:(string -> unit) -> (int, string list) result
(** Replay every [.vxr] under [dir] through {!Replayer.replay} on both
    engines (interpreter and translator): the same verdict as
    [wasprun --replay], so any recording passes or fails alike under
    either CLI. [Ok n] = all [n] fixtures passed. *)

val emit_corpus_fixtures : dir:string -> n:int -> string list
(** Record canonical transcripts for up to [n] built-in seed cases (one
    per input plane first) into [dir]; returns the written paths. *)
