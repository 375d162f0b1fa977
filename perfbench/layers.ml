(* Per-layer attribution from the traced runs.

   Counts come from the deployment's registry, differenced at the bounds
   of the reference window, so they are exact per-op figures.  Unit costs
   come from replays: the layer functions are timed from outside on a
   bounded sample of the very messages the probed run put on the wire. *)

module Cluster = Drive.Cluster
module Engine = Drive.Engine
module Network = Drive.Network
module Message = Drive.Message
module Registry = Splitbft_obs.Registry
module Tracer = Splitbft_obs.Tracer
module Follower = Drive.Follower
module Entry = Drive.Entry
module Sha256 = Splitbft_crypto.Sha256
module Hmac = Splitbft_crypto.Hmac
module Aead = Splitbft_crypto.Aead

let msg_types =
  [ "request"; "preprepare"; "prepare"; "commit"; "checkpoint"; "reply"; "viewchange";
    "newview"; "batch-fetch"; "batch-data"; "state-request"; "state-reply"; "ledger-feed";
    "read-request"; "read-reply" ]

let compartments = [ "preparation"; "confirmation"; "execution" ]

(* Registry snapshot: (name, labels) -> value. *)
let snapshot reg =
  let h = Hashtbl.create 1024 in
  Registry.fold reg ~init:() ~f:(fun () ~name ~labels ~kind:_ ~value ->
      Hashtbl.replace h (name, labels) value);
  h

(* Sum over metrics named [name] whose labels satisfy [keep], of the
   difference between two snapshots. *)
let delta ?(keep = fun _ -> true) s0 s1 name =
  Hashtbl.fold
    (fun (n, labels) v acc ->
      if String.equal n name && keep labels then
        acc +. v -. Option.value ~default:0.0 (Hashtbl.find_opt s0 (n, labels))
      else acc)
    s1 0.0

let label_ends_with suffix labels =
  List.exists (fun (_, v) -> String.ends_with ~suffix v) labels

(* Bounded, deterministic reservoir of wire payloads. *)
type capture = {
  mutable seen : int;
  sample : string array;
  rng : Random.State.t;
  by_type : (string, int * int) Hashtbl.t;  (* count, bytes inside the window *)
  types : (int, string) Hashtbl.t;  (* tag -> type name *)
  requests : Message.request Queue.t;  (* captured requests, for batch replays *)
}

let capture_size = 512

let new_capture () =
  { seen = 0;
    sample = Array.make capture_size "";
    rng = Random.State.make [| 7 |];
    by_type = Hashtbl.create 32;
    types = Hashtbl.create 32;
    requests = Queue.create () }

let type_of cap payload =
  match Message.peek_tag payload with
  | None -> "undecodable"
  | Some tag -> (
    match Hashtbl.find_opt cap.types tag with
    | Some n -> n
    | None ->
      let n =
        match Message.decode payload with Ok m -> Message.type_name m | Error _ -> "undecodable"
      in
      Hashtbl.replace cap.types tag n;
      n)

let observe cap payload =
  let ty = type_of cap payload in
  let c, b = Option.value ~default:(0, 0) (Hashtbl.find_opt cap.by_type ty) in
  Hashtbl.replace cap.by_type ty (c + 1, b + String.length payload);
  if cap.seen < capture_size then cap.sample.(cap.seen) <- payload
  else begin
    let j = Random.State.int cap.rng (cap.seen + 1) in
    if j < capture_size then cap.sample.(j) <- payload
  end;
  cap.seen <- cap.seen + 1;
  if String.equal ty "request" && Queue.length cap.requests < 4096 then
    match Message.decode payload with
    | Ok (Message.Request r) -> Queue.push r cap.requests
    | _ -> ()

(* ----- replays ----- *)

(* CPU nanoseconds per call of [f], repeated for at least [budget_s]. *)
let time_ns ?(budget_s = 0.15) f =
  let n = ref 0 in
  let t0 = Sys.time () in
  while Sys.time () -. t0 < budget_s do
    f ();
    incr n
  done;
  (Sys.time () -. t0) *. 1e9 /. float_of_int (max 1 !n)

let payloads cap = Array.sub cap.sample 0 (min cap.seen capture_size)

let per_item f items =
  let k = Array.length items in
  if k = 0 then 0.0 else time_ns (fun () -> Array.iter f items) /. float_of_int k

let per_kb f items =
  let bytes = Array.fold_left (fun acc s -> acc + String.length s) 0 items in
  if bytes = 0 then 0.0
  else time_ns (fun () -> Array.iter f items) *. 1024.0 /. float_of_int bytes

(* Schedule-plus-fire cost at a live-event depth of [depth]. *)
let event_ns ~depth =
  let e = Engine.create () in
  for i = 1 to depth do
    ignore (Engine.schedule e ~delay:(1e12 +. float_of_int i) ~label:"pad" ignore)
  done;
  time_ns (fun () ->
      for _ = 1 to 100 do
        ignore (Engine.schedule e ~delay:1.0 ~label:"ev" ignore);
        ignore (Engine.step e)
      done)
  /. 100.0

(* A batch of [size] captured requests (cycled when fewer were seen). *)
let batch cap ~size =
  let reqs = Array.of_seq (Queue.to_seq cap.requests) in
  if Array.length reqs = 0 then []
  else List.init size (fun i -> reqs.(i mod Array.length reqs))

let key32 = String.make 32 'k'
let nonce = String.make Aead.nonce_size 'n'

type replay = {
  decode_ns : float;
  encode_ns : float;
  sha_ns_kb : float;
  batch_digest_ns : float;
  hmac_ns : float;
  aead_ns_kb : float;
  seal_ns : float;
  ev_ns : float;
}

let replay cap ~batch_size ~depth =
  let items = payloads cap in
  let decoded =
    Array.of_list
      (List.filter_map
         (fun p -> match Message.decode_traced p with Ok m -> Some m | Error _ -> None)
         (Array.to_list items))
  in
  let b = batch cap ~size:batch_size in
  let ops = Entry.encode_ops (List.map (fun r -> r.Message.payload) b) in
  { decode_ns = per_item (fun p -> ignore (Message.decode_traced p)) items;
    encode_ns = per_item (fun (m, ctx) -> ignore (Message.encode_traced ?ctx m)) decoded;
    sha_ns_kb = per_kb (fun p -> ignore (Sha256.digest p)) items;
    batch_digest_ns =
      (if b = [] then 0.0 else time_ns (fun () -> ignore (Message.digest_of_batch b)));
    hmac_ns = per_item (fun p -> ignore (Hmac.mac ~key:key32 p)) items;
    aead_ns_kb = per_kb (fun p -> ignore (Aead.encrypt ~key:key32 ~nonce ~aad:"" p)) items;
    seal_ns = (if b = [] then 0.0 else time_ns (fun () -> ignore (Entry.seal_ops ~seq:1 ops)));
    ev_ns = event_ns ~depth }

(* ----- the probed repetition's instrumentation ----- *)

type probe = {
  cap : capture;
  mutable in_window : bool;
  mutable s0 : (string * (string * string) list, float) Hashtbl.t;
  mutable s1 : (string * (string * string) list, float) Hashtbl.t;
  mutable reads0 : int;
  mutable reads1 : int;
  lags : Drive.Buf.t;
  depths : Drive.Buf.t;
}

let probe () =
  { cap = new_capture ();
    in_window = false;
    s0 = Hashtbl.create 1;
    s1 = Hashtbl.create 1;
    reads0 = 0;
    reads1 = 0;
    lags = Drive.Buf.create ();
    depths = Drive.Buf.create () }

let reads_served c = List.fold_left (fun a f -> a + Follower.reads_served f) 0 (Cluster.followers c)

let hooks p ~(base : Drive.hooks) =
  { base with
    Drive.on_create =
      (fun c ->
        Network.add_tap (Cluster.network c) (fun ~src:_ ~dst:_ payload ->
            if p.in_window then observe p.cap payload));
    on_slice =
      (fun c ->
        if p.in_window then begin
          Drive.Buf.add p.depths (float_of_int (Engine.live (Cluster.engine c)));
          List.iter
            (fun f -> Drive.Buf.add p.lags (float_of_int (Follower.lag f)))
            (Cluster.followers c)
        end);
    on_window =
      (fun edge c ->
        match edge with
        | `Start ->
          p.in_window <- true;
          p.s0 <- snapshot (Cluster.obs c);
          p.reads0 <- reads_served c
        | `End ->
          p.in_window <- false;
          p.s1 <- snapshot (Cluster.obs c);
          p.reads1 <- reads_served c) }

(* ----- per-layer metrics ----- *)

let percentile a p =
  let n = Array.length a in
  if n = 0 then 0.0
  else begin
    let a = Array.copy a in
    Array.sort compare a;
    let rank = p /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((rank -. float_of_int lo) *. (a.(hi) -. a.(lo)))
  end

let mean a =
  if Array.length a = 0 then 0.0
  else Array.fold_left ( +. ) 0.0 a /. float_of_int (Array.length a)

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* Per op of the reference window, the time enclave transitions spent
   queued behind their compartment's thread: an ecall span opens when the
   ecall is issued and closes when it completes, and [total_us] is its
   service time. *)
let ecall_queue_us_per_op (w : Drive.t) tracer (traced : Drive.run) =
  let st = traced.Drive.sim.steps_r.(w.Drive.ref_step) in
  let q = ref 0.0 in
  Tracer.iter_spans tracer (fun sp ->
      if String.equal sp.Tracer.cat "enclave" && sp.start >= st.s_start && sp.start < st.s_end
         && sp.dur >= 0.0
      then
        let service = Option.value ~default:0.0 (List.assoc_opt "total_us" sp.args) in
        q := !q +. Float.max 0.0 (sp.dur -. service));
  !q /. float_of_int (max 1 st.completed_in)

(* [(name, unit, value)] for every per-layer metric. *)
let metrics (w : Drive.t) p ~(probed : Drive.run) ~(plain : Drive.run) ~queue_us_per_op
    ~probe_overhead ~trace_overhead ~trace_shift =
  let sim = probed.Drive.sim in
  let st = sim.Drive.steps_r.(w.Drive.ref_step) in
  let window_s = (st.Drive.s_end -. st.s_start) /. 1e6 in
  let ops = float_of_int (max 1 st.completed_in) in
  let d ?keep name = delta ?keep p.s0 p.s1 name in
  let per_op ?keep name = d ?keep name /. ops in
  let reg = Cluster.obs probed.cluster in
  let final name = Registry.sum reg ~prefix:name in
  let params = Cluster.params probed.cluster in
  let rp =
    replay p.cap ~batch_size:params.Cluster.batch_size
      ~depth:(int_of_float (mean (Drive.Buf.to_array p.depths)))
  in
  let msgs = Hashtbl.fold (fun _ (c, _) a -> a + c) p.cap.by_type 0 in
  let bytes = Hashtbl.fold (fun _ (_, b) a -> a + b) p.cap.by_type 0 in
  let msgs_per_op = float_of_int msgs /. ops and bytes_per_op = float_of_int bytes /. ops in
  let busiest =
    Hashtbl.fold
      (fun (n, labels) _ acc ->
        if String.equal n "resource.busy_us" then
          Float.max acc (delta ~keep:(fun l -> l = labels) p.s0 p.s1 n)
        else acc)
      p.s1 0.0
  in
  let committed = float_of_int (max 1 plain.Drive.sim.committed_total) in
  let sim_ops_per_s = committed /. plain.cost.sim_cpu_s in
  let hits = d "tee.verify_cache_hits" and misses = d "tee.verify_cache_misses" in
  let events_per_op = per_op "sim.events_fired" in
  let reads = float_of_int (p.reads1 - p.reads0) in
  let followers = List.length (Cluster.followers probed.cluster) in
  [ ("sim.events_per_op", "count", events_per_op);
      ("sim.event_ns", "ns", rp.ev_ns);
      ("sim.host_busy_frac", "frac", busiest /. (window_s *. 1e6));
      ("sim.queue_us_per_op", "us", queue_us_per_op);
      ("net.msgs_per_op", "count", msgs_per_op);
      ("net.bytes_per_op", "bytes", bytes_per_op);
      ("net.dropped", "count", d "net.messages_dropped") ]
    @ List.map
        (fun ty ->
          let c, _ = Option.value ~default:(0, 0) (Hashtbl.find_opt p.cap.by_type ty) in
          ("net.msgs_per_op." ^ ty, "count", float_of_int c /. ops))
        msg_types
    @ [ ("codec.decode_ns_per_msg", "ns", rp.decode_ns);
        ("codec.encode_ns_per_msg", "ns", rp.encode_ns);
        ("crypto.sha256_ns_per_kb", "ns", rp.sha_ns_kb);
        ("crypto.batch_digest_ns", "ns", rp.batch_digest_ns);
        ("crypto.hmac_ns_per_msg", "ns", rp.hmac_ns);
        ("crypto.aead_ns_per_kb", "ns", rp.aead_ns_kb) ]
    @ List.concat_map
        (fun comp ->
          let keep = label_ends_with ("-" ^ comp) in
          [ ("tee.ecalls_per_op." ^ comp, "count", per_op ~keep "tee.ecalls");
            ("tee.ecall_us_per_op." ^ comp, "us", per_op ~keep "tee.ecall_us") ])
        compartments
    @ [ ("tee.copy_bytes_per_op", "bytes", per_op "tee.copy_bytes");
        ("tee.pool_conflict_wait_frac", "frac",
          ratio (d "tee.pool_conflict_waits") (d "tee.pool_tasks"));
        ("tee.verify_cache_hit_frac", "frac", ratio hits (hits +. misses));
        ("tee.ecalls_aborted", "count", final "tee.ecalls_aborted");
        ("broker.ops_per_batch", "count", ratio ops (d "broker.batches"));
        ("broker.retx_per_op", "count", per_op "broker.retx");
        ("broker.suspect_firings", "count", final "broker.suspect_firings");
        ("broker.recovery_ms",  "ms", final "broker.recovery_duration_us" /. 1000.0);
        ("broker.state_transfer_bytes", "bytes", final "broker.state_transfer_bytes_in");
        ("consensus.view_changes", "count", float_of_int sim.view_changes);
        ("client.queue_wait_p99_us", "us", percentile st.qwait 99.0);
        ("client.backlog_growth_ops", "1/s",
          float_of_int (st.backlog_end - st.backlog_start) /. window_s);
        ("harness.identities_live_peak", "count", float_of_int sim.identities_peak);
        ("harness.generator_lateness_us", "us", sim.lateness_us);
        ("storage.follower_lag_p99", "entries", percentile (Drive.Buf.to_array p.lags) 99.0);
        ("storage.stale_frac", "frac",
          ratio (float_of_int sim.refused) (float_of_int sim.attempted));
        ("storage.reads_per_follower_s", "1/s",
          if followers = 0 then 0.0 else reads /. float_of_int followers /. window_s);
        ("storage.entry_seal_ns", "ns", rp.seal_ns);
        ("gc.minor_words_per_op", "words", plain.cost.minor_words /. committed);
        ("gc.major_collections", "count", float_of_int plain.cost.major_collections);
        ("obs.trace_overhead_frac", "frac", trace_overhead);
        ("obs.trace_latency_shift_frac", "frac", trace_shift);
        ("obs.probe_overhead_frac", "frac", probe_overhead);
        ("est.sim_cpu_frac", "frac", rp.ev_ns *. events_per_op *. sim_ops_per_s /. 1e9);
        ("est.codec_cpu_frac", "frac",
          (rp.decode_ns +. rp.encode_ns) *. msgs_per_op *. sim_ops_per_s /. 1e9);
        ("est.wire_sha256_cpu_frac", "frac",
          rp.sha_ns_kb *. bytes_per_op /. 1024.0 *. sim_ops_per_s /. 1e9) ]
