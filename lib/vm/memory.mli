(** Guest physical memory — a paged copy-on-write store.

    Each virtine owns a private, bounds-checked memory region; this is the
    mechanism behind the paper's isolation objective that a virtine "may
    not interact with any data or services outside of its own address
    space" (§3.1). Out-of-bounds accesses raise {!Fault}, which the CPU
    reports as a VM exit instead of ever touching host state.

    Internally the region is a page table of 4 KB pages in one of three
    states: the canonical {e zero} page (never materialized), an immutable
    {e shared} page (content-addressed, referenced by any number of
    memories and snapshot images), or a private {e owned} page. Reads
    never materialize anything; the first store to a zero or shared page
    breaks it private — the simulated analogue of an EPT demand-zero fill
    or CoW violation (see {!set_fault_hook}). Snapshot capture publishes
    pages into the process-wide {!Page_cache} and restore is a
    page-table swap, so warm-path work is O(dirty pages), not O(image). *)

exception Fault of { addr : int; size : int }
(** Raised on any access outside [0, size). *)

type t

val create : size:int -> t
(** Fresh zeroed memory of [size] bytes (all pages reference the zero
    page; nothing is materialized). *)

val size : t -> int

val read_u8 : t -> int -> int
val read_u16 : t -> int -> int
val read_u32 : t -> int -> int
(** Little-endian; result in [0, 2^32). *)

val read_u64 : t -> int -> int64

val write_u8 : t -> int -> int -> unit
val write_u16 : t -> int -> int -> unit
val write_u32 : t -> int -> int -> unit
val write_u64 : t -> int -> int64 -> unit

val read_u64_into : t -> int -> bytes -> int -> unit
(** [read_u64_into t addr buf pos] stores {!read_u64}[ t addr] into
    [buf] at [pos] in native byte order ([Bytes.set_int64_ne]). Unlike
    {!read_u64} it allocates nothing unless the access crosses a page. *)

val write_u64_from : t -> int -> bytes -> int -> unit
(** [write_u64_from t addr buf pos] is {!write_u64}[ t addr
    (Bytes.get_int64_ne buf pos)], allocation-free unless the access
    crosses a page. *)

val read_bytes : t -> off:int -> len:int -> bytes
val write_bytes : t -> off:int -> bytes -> unit
(** [write_bytes] skips all-zero chunks aimed at zero pages, so loading a
    zero-padded image materializes only its nonzero pages. The written
    range is marked dirty either way. *)

val equal_string : t -> off:int -> string -> bool
(** [equal_string t ~off s] is true iff the [String.length s] bytes at
    [off] equal [s]. Compares in place without allocating; raises
    {!Fault} if the range is out of bounds. *)

val read_cstring : t -> off:int -> max:int -> string
(** Read a NUL-terminated string of at most [max] bytes; raises {!Fault}
    if no terminator is found within bounds (hypercall handlers use this to
    validate guest-supplied paths without trusting guest lengths). *)

val fill_zero : t -> unit
(** Zero the whole region by dropping every page reference; marks
    everything dirty. *)

val reset_zero : t -> unit
(** Pool cleaning: drop every page reference {e and} start a fresh dirty
    generation — equivalent to {!fill_zero} + {!clear_dirty} without
    touching a byte. The caller still charges the simulated memset.
    Bumps {!epoch}: translated blocks survive and are revalidated by
    their bytes when next entered.
    Dropped private buffers go to a small process-wide recycle list
    (a fixed 64 pages) that backs later demand-zero fills, CoW breaks
    and eager restores in any memory; a recycled buffer is overwritten
    in full before use. *)

val copy_to : src:t -> dst:t -> unit
(** Share [src]'s pages into [dst]; sizes must match. [src]'s private
    pages are published (deduped) in the process; both sides then CoW. *)

val snapshot : t -> bytes
(** Copy out the full contents as a flat byte string. *)

val restore : t -> bytes -> unit
(** Overwrite contents from a flat snapshot of equal size. *)

(** {1 Page images}

    A capture is an O(pages) reference grab: every non-zero page is
    published into the {!Page_cache} (deduping identical content across
    snapshot keys and shells) and the image holds references, trimmed to
    the footprint. Restores swap references back into the page table. *)

type image

val capture : t -> image
(** Publish the current contents as an immutable page image. The source
    memory keeps running: its pages become shared and the next write to
    any of them CoW-faults. *)

val image_size : image -> int
(** Size of the memory the image was captured from. *)

val image_footprint : image -> int
(** Index of the last nonzero byte + 1 (0 for an all-zero capture). *)

val image_resident_pages : image -> int
(** Non-zero page references the image holds. *)

val restore_image : ?eager:bool -> t -> image -> int
(** Swap the image's page references in, zero-page the rest, and mark
    everything dirty (callers running a full reset then {!clear_dirty}).
    By default O(pages) reference stores — no byte traffic; later stores
    CoW-fault lazily. [~eager:true] materializes private copies up front
    (the paper's eager memcpy restore — O(footprint) bytes, no later
    faults). Returns the footprint. *)

val restore_image_cow : t -> image -> int * int
(** Rewrite only the pages dirtied since the last {!clear_dirty} with the
    image's references (zero beyond the image). Returns
    [(pages, logical_bytes)] restored; the caller clears the dirty set.
    Only valid when [t] held this image's state before the dirtying run. *)

(** {1 Dirty-page tracking}

    Every write marks its 4 KB page with the current generation stamp;
    {!clear_dirty} bumps the generation, invalidating all stamps in O(1).
    Copy-on-write virtine resets (the SEUSS-style optimization of §7.2)
    restore only the pages the previous invocation touched. *)

val page_size : int
(** 4096. *)

val dirty_pages : t -> int list
(** Indices of pages written since the last {!clear_dirty}, ascending. *)

val dirty_count : t -> int

val clear_dirty : t -> unit

(** {1 Content versions}

    Independent of the dirty stamps, every page carries a monotonic
    {e content version} bumped whenever its bytes may change (stores,
    image restores); {!reset_zero} instead bumps a memory-wide {e epoch}
    in O(1). The translation cache ({!module:Translate}) records the
    epoch and the versions of the pages a superblock was decoded from
    as a filter: a block they mark stale is compared with the bytes it
    decoded, so self-modifying code and pool resets cost a
    retranslation only where the bytes changed. {!clear_dirty} changes
    neither — cleaning the dirty set does not alter contents. *)

val epoch : t -> int
(** Memory-wide content epoch; bumped by {!reset_zero}, which thereby
    marks every translated block stale without touching a page
    version. *)

val page_version : t -> int -> int
(** Content version of page [p] (not bounds-checked; callers pass pages
    obtained from successful accesses). *)

(** {1 Fault accounting} *)

val set_fault_hook : t -> (shared:bool -> page:int -> unit) option -> unit
(** Called on every page materialization: [shared = true] for a CoW break
    of a shared page (the simulated EPT write-protection violation),
    [false] for a demand-zero fill. The simulated KVM installs this to
    charge cycle costs and feed the flight recorder. *)

type page_stats = {
  total_pages : int;
  resident_pages : int;   (** privately materialized (owned) pages *)
  shared_pages : int;     (** references into the content-addressed cache *)
  zero_pages : int;
  cow_faults : int;       (** shared pages broken private over [t]'s life *)
  zero_fills : int;       (** demand-zero materializations *)
  recycled : int;
      (** materializations (zero fills, CoW breaks, eager restores)
          backed by a buffer another memory's {!reset_zero} dropped *)
}

val page_stats : t -> page_stats

val resident_bytes : t -> int
(** Owned pages × {!page_size}: host memory this guest uniquely holds. *)

(** {1 Content-addressed page cache}

    Process-wide dedup table keyed by page-content digest. Bounded FIFO:
    eviction only loses future dedup (live references keep their buffers
    alive), never correctness. *)

module Page_cache : sig
  val set_capacity : int -> unit
  (** Default 8192 pages (32 MB). *)

  val entries : unit -> int
  val bytes : unit -> int
  val hits : unit -> int
  (** Interns that found an identical resident page. *)

  val misses : unit -> int
  val evictions : unit -> int

  val reset : unit -> unit
  (** Drop the table and zero the stats (tests). Outstanding references
      remain valid. *)
end
