module Ids = Splitbft_types.Ids
module Message = Splitbft_types.Message
module Validation = Splitbft_types.Validation
module Enclave = Splitbft_tee.Enclave
module Rollback = Splitbft_tee.Rollback
module Log = Splitbft_consensus.Log
module Votes = Splitbft_consensus.Votes
module Ckpt = Splitbft_consensus.Ckpt
module Proofs = Splitbft_consensus.Proofs
module W = Splitbft_codec.Writer
module R = Splitbft_codec.Reader

type byz = Conf_honest | Conf_promiscuous | Conf_stale_proof

(* Mutation hook for the model checker's self-test: re-introduces the
   pre-PR-3 view-change bug where prepared certificates were dropped on
   [Log.reset] at view entry.  Never set outside tests — the checker must
   find the resulting agreement violation within budget, proving it can
   see this class of bug at all. *)
let mutate_drop_prepared_on_view_entry = ref false

type probe = {
  view : unit -> int;
  last_stable : unit -> int;
  commits_sent : unit -> int;
}

type slot = {
  pd : Message.preprepare_digest;  (* accepted proposal (in_conf) *)
  mutable committed : bool;
}

type state = {
  cfg : Config.t;
  prep_lookup : Validation.key_lookup;
  conf_lookup : Validation.key_lookup;
  exec_lookup : Validation.key_lookup;
  mutable view : Ids.view;
  proposals : slot Log.t;
  prepares : (Ids.seqno, Message.prepare) Votes.t;
  prepared : Message.prepared_proof Log.t;  (* for ViewChange; survives suspicion *)
  viewchanges_seen : (Ids.view, Message.viewchange) Votes.t;
      (* peers' ViewChanges, for the join rule: f+1 of them for a higher
         view prove a correct replica suspects, so this one joins without
         waiting for its own timer.  Without it a replica that already
         answered the stalled request (e.g. from the broker's replay
         cache) never suspects, and the remaining live replicas can be
         one short of the 2f+1 ViewChange quorum forever. *)
  (* messages addressed just above the window's high edge, parked until
     our own checkpoint stabilises (see Preparation.ahead) *)
  mutable ahead : Message.t list;
  ckpt : Ckpt.t;
  mutable commit_count : int;
  mutable halted : bool;
}

let create_state (cfg : Config.t) =
  { cfg;
    prep_lookup = Config.prep_public ~n:cfg.n;
    conf_lookup = Config.conf_public ~n:cfg.n;
    exec_lookup = Config.exec_public ~n:cfg.n;
    view = 0;
    proposals = Log.create ~window:cfg.watermark_window ();
    prepares = Votes.create ~size:128 ();
    prepared = Log.create ~window:cfg.watermark_window ();
    viewchanges_seen = Votes.create ~size:4 ();
    ahead = [];
    ckpt = Ckpt.create ~quorum:(Config.quorum cfg);
    commit_count = 0;
    halted = false }

let in_window st seq = Log.in_window st.proposals seq

(* Handler (3): a complete prepare certificate yields a Commit. *)
let try_commit env st seq =
  match Log.find st.proposals seq with
  | None -> ()
  | Some s ->
    let prepares = Votes.get st.prepares seq in
    if
      (not s.committed)
      && Validation.prepare_cert_complete ~f:(Config.f st.cfg) s.pd prepares
    then begin
      s.committed <- true;
      st.commit_count <- st.commit_count + 1;
      Log.set st.prepared seq { Message.proof_preprepare = s.pd; proof_prepares = prepares };
      let c =
        { Message.view = st.view; seq; digest = s.pd.pd_digest; sender = st.cfg.id; c_sig = "" }
      in
      let c = { c with c_sig = Common.sign_with env (Message.commit_signing_bytes c) } in
      Enclave.emit env (Wire.encode_output (Wire.Out_broadcast (Message.Commit c)))
    end

let promiscuous_commit env st (pd : Message.preprepare_digest) =
  let c =
    { Message.view = pd.pd_view;
      seq = pd.pd_seq;
      digest = pd.pd_digest;
      sender = st.cfg.id;
      c_sig = "" }
  in
  let c = { c with c_sig = Common.sign_with env (Message.commit_signing_bytes c) } in
  Enclave.emit env (Wire.encode_output (Wire.Out_broadcast (Message.Commit c)))

let proposal_plausible st (pd : Message.preprepare_digest) =
  pd.pd_view = st.view
  && pd.pd_sender = Config.primary_of_view st.cfg st.view
  && in_window st pd.pd_seq
  && not (Log.mem st.proposals pd.pd_seq)

let park_ahead st msg =
  if List.length st.ahead < Log.window st.proposals then
    st.ahead <- st.ahead @ [ msg ]

let on_proposal env st ~byz (pd : Message.preprepare_digest) =
  if pd.pd_view = st.view && Log.ahead_of_window st.proposals pd.pd_seq then
    park_ahead st (Message.Preprepare_digest pd)
  else begin
  (match byz with
  | Conf_promiscuous -> promiscuous_commit env st pd
  | Conf_honest | Conf_stale_proof -> ());
  if Config.hotpath st.cfg then begin
    if proposal_plausible st pd && Common.verify_preprepare_digest_c env st.prep_lookup pd
    then begin
      Log.set st.proposals pd.pd_seq { pd; committed = false };
      try_commit env st pd.pd_seq
    end
  end
  else begin
    Common.charge_verify env 1;
    if proposal_plausible st pd && Validation.verify_preprepare_digest st.prep_lookup pd
    then begin
      Log.set st.proposals pd.pd_seq { pd; committed = false };
      try_commit env st pd.pd_seq
    end
  end
  end

let on_prepare env st (p : Message.prepare) =
  if p.view = st.view && Log.ahead_of_window st.proposals p.seq then
    park_ahead st (Message.Prepare p)
  else if Config.hotpath st.cfg then begin
    (* Already-committed slots and duplicate senders cannot change the
       outcome; drop them before the signature is even checked. *)
    let committed =
      match Log.find st.proposals p.seq with Some s -> s.committed | None -> false
    in
    if
      p.view = st.view
      && in_window st p.seq
      && (not committed)
      && (not (Votes.mem st.prepares ~key:p.seq ~sender:p.sender))
      && Common.verify_prepare_c env st.prep_lookup p
    then begin
      if Votes.add st.prepares ~key:p.seq ~sender:p.sender p then try_commit env st p.seq
    end
  end
  else begin
    Common.charge_verify env 1;
    if p.view = st.view && in_window st p.seq && Validation.verify_prepare st.prep_lookup p
    then begin
      if Votes.add st.prepares ~key:p.seq ~sender:p.sender p then try_commit env st p.seq
    end
  end

(* Re-inject messages that were ahead of the window before it slid. *)
let drain_ahead env st ~byz =
  let pending = st.ahead in
  st.ahead <- [];
  List.iter
    (function
      | Message.Preprepare_digest pd -> on_proposal env st ~byz pd
      | Message.Prepare p -> on_prepare env st p
      | _ -> ())
    pending

let gc st stable =
  Log.advance_low_mark st.proposals stable;
  Log.prune st.proposals ~upto:stable;
  Votes.prune st.prepares ~keep:(fun seq -> seq > stable);
  Log.advance_low_mark st.prepared stable;
  Log.prune st.prepared ~upto:stable

(* ----- rollback-protected sealed checkpoints (view + stable mark) ----- *)

let decode_recovery_image r =
  let view = R.varint r in
  let last_stable = R.varint r in
  (view, last_stable)

let seal_checkpoint_state env st =
  let counter = Enclave.counter_increment env "ckpt" in
  let image =
    Rollback.image ~counter (fun w ->
        W.varint w st.view;
        W.varint w (Ckpt.last_stable st.ckpt))
  in
  let sealed = Enclave.seal env image in
  Enclave.ocall env
    (Wire.encode_output (Wire.Out_persist { tag = "ckpt:confirmation"; data = sealed }))

let on_recover env st blob_opt =
  let counter = Enclave.counter_read env "ckpt" in
  match
    Rollback.recover Async ~who:"confirmation" ~counter ~unseal:(Enclave.unseal env)
      ~decode:decode_recovery_image blob_opt
  with
  | Error reason ->
    st.halted <- true;
    Enclave.emit env (Wire.encode_output (Wire.Out_alert reason))
  | Ok None -> ()
  | Ok (Some (view, last_stable)) ->
    st.view <- view;
    Ckpt.force_stable st.ckpt last_stable;
    Log.advance_low_mark st.proposals last_stable;
    Log.advance_low_mark st.prepared last_stable

(* Broadcast our own ViewChange targeting [new_view] and stop working in
   the old view.  A [Conf_stale_proof] adversary replays its initial
   (stale) state instead of the current one: genesis checkpoint, no
   prepared certificates — trying to talk the next primary into
   re-proposing from scratch.  One such liar is harmless: the NewView
   quorum (2f+1) still contains 2f honest ViewChanges that carry the real
   certificates, and the new-view computation takes their maximum. *)
let send_viewchange env st ~byz new_view =
  let stale = match byz with Conf_stale_proof -> true | _ -> false in
  let vc =
    { Message.vc_new_view = new_view;
      vc_last_stable = (if stale then 0 else Ckpt.last_stable st.ckpt);
      vc_checkpoint_proof = (if stale then [] else Ckpt.proof st.ckpt);
      vc_prepared =
        (if stale then [] else Log.fold (fun _ proof acc -> proof :: acc) st.prepared []);
      vc_sender = st.cfg.id;
      vc_sig = "" }
  in
  let vc = { vc with vc_sig = Common.sign_with env (Message.viewchange_signing_bytes vc) } in
  (* Advancing the view stops Prepare processing and Commits in the old
     view from this point on.  Prepared certificates are kept: a
     cascading view change must still be able to carry them. *)
  st.view <- new_view;
  Log.reset st.proposals;
  Votes.reset st.prepares;
  if !mutate_drop_prepared_on_view_entry then Log.reset st.prepared;
  st.ahead <- [];
  Votes.prune st.viewchanges_seen ~keep:(fun v -> v > new_view);
  Enclave.emit env (Wire.encode_output (Wire.Out_broadcast (Message.Viewchange vc)));
  Enclave.emit env (Wire.encode_output (Wire.Out_entered_view new_view))

(* Handler (5): primary suspicion from the environment's request timer. *)
let on_suspect env st ~byz suspected_view =
  if suspected_view >= st.view then send_viewchange env st ~byz (st.view + 1)

(* Join rule (PBFT §4.5.2): f+1 ViewChanges for a view above ours prove at
   least one correct replica's timer expired; join the smallest such view
   without waiting for our own. *)
let on_viewchange env st ~byz (vc : Message.viewchange) =
  let deep_ok =
    if Config.hotpath st.cfg then
      vc.vc_new_view > st.view
      && Common.verify_viewchange_deep_c env ~f:(Config.f st.cfg)
           ~vc_lookup:st.conf_lookup ~ckpt_lookup:st.exec_lookup
           ~proof_lookup:st.prep_lookup vc
    else begin
      Common.charge_verify env (Proofs.viewchange_sig_count vc);
      vc.vc_new_view > st.view
      && Validation.verify_viewchange_deep ~f:(Config.f st.cfg) ~vc_lookup:st.conf_lookup
           ~ckpt_lookup:st.exec_lookup ~proof_lookup:st.prep_lookup vc
    end
  in
  if deep_ok && vc.vc_sender <> st.cfg.id then begin
    if Votes.add st.viewchanges_seen ~key:vc.vc_new_view ~sender:vc.vc_sender vc then begin
      let joiners = List.length (Votes.get st.viewchanges_seen vc.vc_new_view) in
      if joiners >= Config.f st.cfg + 1 then send_viewchange env st ~byz vc.vc_new_view
    end
  end

(* Handler (7'): checkpoint-and-view part of a NewView — the embedded
   Prepares are not validated here (§4). *)
let on_newview env st (nv : Message.newview) =
  if
    nv.nv_view >= st.view
    && Common.newview_shallow_ok env ~hotpath:(Config.hotpath st.cfg)
         ~f:(Config.f st.cfg) ~n:st.cfg.n ~prep_lookup:st.prep_lookup
         ~conf_lookup:st.conf_lookup nv
  then begin
    ignore (Ckpt.absorb_newview st.ckpt nv);
    st.view <- nv.nv_view;
    Log.reset st.proposals;
    Votes.reset st.prepares;
    st.ahead <- [];
    Votes.prune st.viewchanges_seen ~keep:(fun v -> v > nv.nv_view);
    (* [st.prepared] is deliberately kept (as in on_suspect): dropping the
       certificates for unstable seqs here would let a still-later NewView
       re-propose different content at seqs already committed under them.
       Stability-driven [gc] below prunes whatever the checkpoint covers;
       per-seq entries are overwritten when a higher view re-prepares. *)
    if !mutate_drop_prepared_on_view_entry then Log.reset st.prepared;
    gc st (Ckpt.last_stable st.ckpt);
    Enclave.emit env (Wire.encode_output (Wire.Out_entered_view st.view))
  end

let handle env st ~byz (input : Wire.input) =
  if st.halted then ()
  else
    match input with
    | Wire.In_suspect v -> on_suspect env st ~byz v
    | Wire.In_batch _ | Wire.In_ledger _ -> ()
    | Wire.In_recover blob -> on_recover env st blob
    | Wire.In_net msg -> (
      match msg with
      | Message.Preprepare pp ->
        (* A correct broker sends the digest form; accept the full form too
           (it carries strictly more). *)
        on_proposal env st ~byz (Message.summarize pp)
      | Message.Preprepare_digest pd -> on_proposal env st ~byz pd
      | Message.Prepare p -> on_prepare env st p
      | Message.Viewchange vc -> on_viewchange env st ~byz vc
      | Message.Newview nv -> on_newview env st nv
      | Message.Checkpoint ck ->
        Common.on_checkpoint env ~hotpath:(Config.hotpath st.cfg)
          ~exec_lookup:st.exec_lookup st.ckpt ck
          ~on_stable:(fun stable ->
            gc st stable;
            drain_ahead env st ~byz;
            seal_checkpoint_state env st)
      | Message.Request _ | Message.Commit _ | Message.Reply _
      | Message.Session_init _ | Message.Session_quote _ | Message.Session_key _
      | Message.Session_ack _ | Message.Batch_fetch _ | Message.Batch_data _
      | Message.State_request _ | Message.State_reply _
      | Message.Ledger_subscribe _ | Message.Ledger_feed _
      | Message.Read_request _ | Message.Read_reply _ ->
        ())

let make ?(byz = Conf_honest) (cfg : Config.t) =
  let current = ref (create_state cfg) in
  let program env =
    let st = create_state cfg in
    current := st;
    fun payload ->
      match Wire.decode_input payload with
      | Error _ -> ()
      | Ok input -> handle env st ~byz input
  in
  let probe =
    { view = (fun () -> !current.view);
      last_stable = (fun () -> Ckpt.last_stable !current.ckpt);
      commits_sent = (fun () -> !current.commit_count) }
  in
  (program, probe)
