(** State-transfer catch-up tally: what a recovering replica has been told
    by its peers' state replies, and when it has heard enough.

    Replies are unsigned, so a recovering replica trusts a claim only once
    f+1 distinct repliers make it — at least one of them is honest.  Log
    entries install once f+1 repliers vouch for the same digest; the
    catch-up target is the (f+1)-th highest height (and view) among the
    live replies, which at least one honest replica reached.

    Pure state, polymorphic in the height type (sequence numbers for PBFT
    and the Execution compartment, USIG counters for MinBFT).  Messages,
    cost charges and installs stay with the caller.  Read followers apply
    the same rules to the ledger feed. *)

type 'h t

val create : f:int -> compare:('h -> 'h -> int) -> 'h t
(** [compare] orders heights. *)

val vouch : 'h t -> key:'h -> replier:int -> digest:string -> bool
(** Records [replier]'s claim that the entry at [key] has [digest];
    [true] when the claim is new (a replier vouches once per key) and at
    least f+1 distinct repliers now agree on [digest]. *)

val reply : 'h t -> replier:int -> height:'h -> view:int -> unit
(** Records the height and view [replier] vouched for in one reply.  Each
    replier keeps one live reply: a retry round's reply replaces the
    earlier one. *)

val target : 'h t -> ('h * int) option
(** The (f+1)-th highest height and the (f+1)-th highest view among the
    live replies, each ranked on its own; [None] until f+1 repliers have
    replied.  f repliers inflating their claims cannot raise either. *)

val forget : 'h t -> 'h -> unit
(** Drops the vouches recorded for one key (once its entry is installed). *)

val reset : 'h t -> unit

val vouched_height : f:int -> compare:('h -> 'h -> int) -> 'h list -> 'h option
(** The (f+1)-th highest of the heights claimed by distinct repliers, the
    rule {!target} applies; [None] for fewer than f+1 claims. *)
