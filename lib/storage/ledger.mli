(** Proteus-style append-only, rollback-protected log beneath the
    Execution compartment.

    The ledger is a stream of entry records carrying a running hash
    chain.  Every [segment_entries] appends, the finished segment is
    {e sealed}: a header (first, last, chain) is bound to a fresh value
    of a named monotonic counter and persisted through the untrusted
    host, exactly the way sealed checkpoints are bound to the "ckpt"
    counter.  Compaction drops whole segments once a 2f+1-certified
    checkpoint covers them, replacing them with a sealed {e base} record
    holding the chain anchor and the certified state digest — replaying
    base + surviving entries reproduces the pre-compaction state.

    Recovery scans the surviving records oldest-first: a torn {e final}
    record is truncated (the legitimate crash window); corruption any
    earlier, a chain break, a header that does not cover the replayed
    entries, or a counter mismatch beyond one slot is refused loudly via
    the caller's alert path — the host is caught serving a rolled-back
    ledger.

    The module is enclave-agnostic: sealing and counter bumps are passed
    in as closures, so the Execution program wires [Enclave.seal] /
    [Enclave.counter_increment] while tests drive it directly. *)

type t

type segment = {
  sg_first : int;
  sg_last : int;
  sg_chain : string;
  sg_counter : int64;
}

val create : segment_entries:int -> t
(** Fresh, empty ledger rotating every [segment_entries] appends.
    @raise Invalid_argument if [segment_entries <= 0]. *)

val last_seq : t -> int
val floor : t -> int
val chain : t -> string
val sealed_segments : t -> segment list
(** Oldest first. *)

val segment_entries : t -> int

(** {2 Record tags} *)

val entry_tag : string
val base_tag : string
val cut_tag : string

val seal_tag : int -> string
(** Tag of the sealed header finishing the segment ending at the given
    sequence number. *)

val is_ledger_tag : string -> bool
(** [true] for every tag this module emits (prefix ["ledger:"]). *)

val seal_tag_seq : string -> int option
(** Inverse of {!seal_tag}: the segment-ending sequence number, for
    host-side garbage collection. *)

(** {2 Writing} *)

val append :
  t ->
  seal:(string -> string) ->
  counter:(unit -> int64) ->
  seq:int ->
  digest:string ->
  ops:string ->
  (string * string) list
(** Appends one committed entry; returns the (tag, data) records the
    caller must persist, in order — the entry record, plus a sealed
    segment header when this append completes a segment.  Sequence
    numbers at or below {!last_seq} are idempotently skipped ([[]]). *)

val compact :
  t ->
  stable:int ->
  state_digest:string ->
  seal:(string -> string) ->
  counter:(unit -> int64) ->
  (string * string) list
(** Drops every sealed segment fully covered by the certified checkpoint
    [stable] and returns the records to persist: a sealed base (bound to
    a fresh counter value, anchoring the chain and recording
    [state_digest]) followed by a {!cut_tag} marker telling the host
    which prefix to garbage-collect.  [[]] when no segment is droppable;
    the open segment and segments reaching past [stable] are never
    touched. *)

(** {2 Recovery} *)

type recovered = {
  ledger : t;  (** ready to continue appending *)
  entries : Entry.t list;  (** surviving entries above the floor, oldest first *)
  rec_stable : int;  (** certified checkpoint recorded by the newest base; 0 if none *)
  rec_state_digest : string;
  torn_tail : bool;  (** the final record was torn and truncated *)
}

val recover :
  segment_entries:int ->
  counter:int64 ->
  unseal:(string -> (string, string) result) ->
  (string * string) list ->
  (recovered, string) result
(** Replays persisted records (oldest first) into a fresh ledger.
    [counter] is the platform's current value of the ledger counter; the
    newest sealed artifact must pass {!Splitbft_tee.Rollback.check} in
    [Async] mode (bound to [counter] or [counter - 1], the one-slot crash
    window).  [Error reason] demands the caller take the refusal path
    (halt + alert) — it means tampering, not a crash. *)
