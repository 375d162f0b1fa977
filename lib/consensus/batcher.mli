(** The primary's pending-request queue and its size-or-timeout flush rule.

    PBFT's and MinBFT's primaries and the SplitBFT broker (the untrusted
    environment batches, paper §3) share one policy: requests wait in
    arrival order, a request already waiting is not queued twice (keyed by
    client and timestamp), and the queue is cut into a batch once it holds
    [batch_size] requests or when the batch timer fires.

    Pure state: no timers, no messages.  The caller owns the timer, its
    own guards (primary only, not in a view change, window checks) and
    what a batch becomes. *)

module Message = Splitbft_types.Message

type t

val create : unit -> t

val push : t -> Message.request -> bool
(** Appends a request; [false] (and no change) when a request with the
    same client and timestamp is already queued. *)

val take : t -> max:int -> Message.request list
(** Removes and returns up to [max] requests, oldest first.  Taken
    requests may be pushed again. *)

val length : t -> int
val iter : t -> (Message.request -> unit) -> unit
val clear : t -> unit

type decision =
  | Flush  (** a full batch is waiting: cut it now *)
  | Arm  (** requests wait for a batch to fill: run the batch timer *)
  | Idle  (** nothing waits: stop the batch timer *)

val next : t -> batch_size:int -> decision
(** The size-or-timeout rule, consulted after every push and every flush. *)
