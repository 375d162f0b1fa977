(** Rollback protection for sealed recovery state (DESIGN.md §6a).

    Every sealed recovery image starts with a u64 header: the value of a
    named monotonic counter, bumped when the image was sealed.  On restart
    the recovering code reads the platform counter and accepts only an
    image whose header is fresh enough, so a host replaying an older blob,
    withholding the blob, or wiping the counter is caught and refused
    loudly instead of silently rejoining with stale state.

    How fresh is fresh enough depends on how the caller persists: *)

type mode =
  | Async
      (** The counter bumps inside the seal but the blob reaches disk
          through the untrusted host afterwards, so a crash can
          legitimately lose the newest seal.  Accepts a blob bound to the
          counter [c] or to [c - 1]; a missing blob is refused once
          [c > 1].  Used by the SplitBFT compartments ([Out_persist]) and
          the storage ledger. *)
  | Sync
      (** The blob is written in the same step as the counter bump (the
          PBFT and MinBFT baselines' [persist_log]), so nothing can be
          lost in between.  Accepts only a blob bound to [c]; a missing
          blob is refused once [c > 0]. *)

val image : counter:int64 -> (Splitbft_codec.Writer.t -> unit) -> string
(** [image ~counter body] encodes the counter header followed by [body]:
    the plaintext to seal. *)

val check : mode -> who:string -> counter:int64 -> int64 option -> (unit, string) result
(** The acceptance rule alone: [check mode ~who ~counter sealed] judges a
    sealed counter [sealed] ([None] when no sealed state was offered)
    against the platform counter [counter].  A refusal is prefixed with
    [who] and names a rollback ("rollback detected"). *)

val recover :
  mode ->
  who:string ->
  counter:int64 ->
  unseal:(string -> (string, string) result) ->
  decode:(Splitbft_codec.Reader.t -> 'a) ->
  string option ->
  ('a option, string) result
(** [recover mode ~who ~counter ~unseal ~decode blob] unseals [blob],
    reads the counter header, decodes the rest of the image with [decode]
    and applies {!check}.  [Ok None]: no blob, legitimately (fresh
    start).  [Ok (Some body)]: the image is accepted.  [Error reason]: the
    blob fails to unseal or decode, or is refused by {!check}. *)
