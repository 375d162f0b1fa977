(** Byte-level envelopes crossing the enclave boundary.

    Ecall payloads and ocall outputs are opaque byte strings to the TEE
    substrate; this module defines their structure.  Inputs are what the
    untrusted broker may feed a compartment (network messages, request
    batches, primary suspicion); outputs are the effects a compartment asks
    the environment to perform.  Everything a compartment emits is either
    already signed/encrypted or liveness-only, so a malicious environment
    gains nothing from seeing or altering it. *)

module Ids = Splitbft_types.Ids
module Message = Splitbft_types.Message

type input =
  | In_net of Message.t  (** protocol message from the network or a local compartment *)
  | In_batch of Message.request list  (** environment hands a batch to the primary's Preparation *)
  | In_suspect of Ids.view  (** environment suspects the primary of the given view *)
  | In_recover of string option
      (** restart handshake: the broker hands back the newest sealed
          checkpoint blob it holds for this compartment ([None] if storage
          has none).  The compartment unseals it, checks the bound
          monotonic counter, and either resumes or refuses (rollback). *)
  | In_ledger of (string * string) list
      (** second phase of the Execution restart handshake: the persisted
          ledger records (oldest first).  The compartment replays them
          through {!Splitbft_storage.Ledger.recover}, verifying the hash
          chain and counter binding — refusing loudly on rollback. *)

type output =
  | Out_send of int * Message.t  (** unicast to a network address *)
  | Out_broadcast of Message.t
      (** send to all other replicas and route to the local sibling
          compartments *)
  | Out_persist of { tag : string; data : string }
      (** sealed blob written to untrusted storage (ledger blocks) *)
  | Out_entered_view of Ids.view  (** liveness hint: timers/primary tracking *)
  | Out_alert of string
      (** loud safety alarm — e.g. a rollback attack detected during
          recovery.  The compartment halts after emitting it. *)
  | Out_recovered  (** recovery complete: caught up and rejoining quorums *)

(** Envelopes optionally carry a trace context as a backward-compatible
    trailer ({!Splitbft_obs.Trace_ctx}): the broker appends one to an
    ecall input ([encode_input_into ~ctx]) and reads one off an output
    ([decode_output_traced]).  Without a trailer the bytes are the
    pre-tracing encoding, and the plain [decode_*] tolerate (and drop) a
    trailer, so compartments built before tracing — and sealed payloads —
    keep decoding. *)

val encode_input : input -> string
val decode_input : string -> (input, string) result

val encode_input_into :
  ?ctx:Splitbft_obs.Trace_ctx.t -> Splitbft_codec.Writer.t -> input -> unit
(** [encode_input] straight into an existing writer, followed by [ctx]'s
    trailer — with {!Splitbft_codec.Writer.reset} this lets the broker
    build every ecall payload in one reusable arena instead of growing a
    fresh buffer per call.  Without [ctx] the bytes are identical to
    {!encode_input}. *)

val encode_output : output -> string
val decode_output : string -> (output, string) result

val decode_output_traced :
  string -> (output * Splitbft_obs.Trace_ctx.t option, string) result
