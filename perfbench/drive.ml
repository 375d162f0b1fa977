(* Workload definitions and the drivers that run one repetition of a
   workload against a fresh cluster.

   Everything in a repetition's [sim] result is simulated time or a count,
   so it is a pure function of the workload and the seed; the wall-clock
   and CPU figures sit beside it in [cost].  Drivers use only the public
   harness APIs: [Cluster] to deploy, [Client] for the quorum path,
   [Workload.Open_loop.gen] for open-loop arrivals and operations, and
   [Network] for the follower read path. *)

module Cluster = Splitbft_harness.Cluster
module Safety = Splitbft_harness.Safety
module Workload = Splitbft_harness.Workload
module Ol = Workload.Open_loop
module Engine = Splitbft_sim.Engine
module Network = Splitbft_sim.Network
module Client = Splitbft_client.Client
module Kvs = Splitbft_app.Kvs
module Rng = Splitbft_util.Rng
module Zipf = Splitbft_util.Zipf
module Message = Splitbft_types.Message
module Addr = Splitbft_types.Addr
module Follower = Splitbft_storage.Follower
module Entry = Splitbft_storage.Entry
module Proto_splitbft = Splitbft_proto.Proto_splitbft

(* ----- workload definitions ----- *)

type step = {
  rate : float;  (** offered ops per simulated second *)
  warm_us : float;  (** arrivals before the step's measured window *)
  window_us : float;
}

type fault = { crash_after_us : float; restart_after_us : float }
(** Crash/restart of replica 0 (the view-0 primary), relative to the start
    of the measured window. *)

type shape =
  | Open of { spec : Ol.spec; steps : step list; fault : fault option }
      (** open loop: arrivals follow the schedule regardless of replies *)
  | Closed of {
      drivers : int;
      read_ratio : float;
      zipf_s : float;
      keyspace : int;
      warm_us : float;
      window_us : float;
      read_retry_us : float;
    }  (** closed loop: each driver waits for its reply; reads go to followers *)

type t = {
  name : string;
  params : seed:int64 -> Cluster.params;
  shape : shape;
  ref_step : int;  (** step whose requests feed the latency metrics *)
  tput_step : int;  (** step whose window feeds [throughput_ops] *)
  reps : int;  (** distinct sub-seeds pooled into the simulated metrics *)
}

let splitbft ?(lanes = 1) ?(workers = 1) ?(segment_entries = 0) ~batch ~followers ~seed
    () =
  let proto = Proto_splitbft.make ~lanes ~exec_workers:workers ~segment_entries () in
  { (Cluster.default_params proto) with
    Cluster.batch_size = batch;
    batch_timeout_us = 10_000.0;
    seed;
    followers }

(* The paper's Fig. 3a setting: every request is its own batch and pays
   all three compartments' transitions. *)
let kvs_unbatched =
  let spec =
    { Ol.default_spec with
      Ol.connections = 16;
      window = 16;
      identities = 100_000;
      identity_cache = 4_096;
      zipf_s = 0.0;
      keyspace = 4_096;
      read_ratio = 0.0 }
  in
  let step rate = { rate; warm_us = 40_000.0; window_us = 250_000.0 } in
  { name = "kvs-unbatched";
    params = (fun ~seed -> splitbft ~batch:1 ~followers:0 ~seed ());
    shape =
      Open { spec; steps = List.map step [ 1_000.0; 1_500.0; 2_000.0; 2_800.0 ]; fault = None };
    ref_step = 1;
    tput_step = 3;
    reps = 3 }

(* The production configuration: 4 lanes, 4 Execution workers, batches of
   200, 1M identities over a 4096-entry cache, Zipf 0.99, 90/10 GET/PUT. *)
let kvs_zipf_b200 =
  let spec = Splitbft_harness.Experiments.openloop_spec in
  { name = "kvs-zipf-b200";
    params = (fun ~seed -> splitbft ~lanes:4 ~workers:4 ~batch:200 ~followers:0 ~seed ());
    shape =
      Open
        { spec;
          steps = [ { rate = 100_000.0; warm_us = 15_000.0; window_us = 50_000.0 } ];
          fault = None };
    ref_step = 0;
    tput_step = 0;
    reps = 4 }

let primary_crash =
  let spec = Splitbft_harness.Experiments.openloop_spec in
  { name = "primary-crash";
    params = (fun ~seed -> splitbft ~batch:200 ~followers:0 ~seed ());
    shape =
      Open
        { spec;
          steps = [ { rate = 5_000.0; warm_us = 50_000.0; window_us = 1_500_000.0 } ];
          fault = Some { crash_after_us = 100_000.0; restart_after_us = 800_000.0 } };
    ref_step = 0;
    tput_step = 0;
    reps = 3 }

(* The `bench storage` f4 point: 64-entry ledger segments, 4 followers,
   192 closed-loop drivers with a 95/5 Zipf read/write mix. *)
let follower_reads =
  { name = "follower-reads";
    params =
      (fun ~seed ->
        { (splitbft ~segment_entries:64 ~batch:1 ~followers:4 ~seed ()) with
          Cluster.checkpoint_interval = 64 });
    shape =
      Closed
        { drivers = 192;
          read_ratio = 0.95;
          zipf_s = 0.99;
          keyspace = 256;
          warm_us = 50_000.0;
          window_us = 200_000.0;
          read_retry_us = 100_000.0 };
    ref_step = 0;
    tput_step = 0;
    reps = 3 }

let all = [ kvs_unbatched; kvs_zipf_b200; primary_crash; follower_reads ]

let find name = List.find_opt (fun w -> String.equal w.name name) all

let steps w =
  match w.shape with
  | Open { steps; _ } -> steps
  | Closed { warm_us; window_us; _ } -> [ { rate = 0.0; warm_us; window_us } ]

(* Sub-seed of repetition [k]: repetitions pool distinct simulations. *)
let sub_seed ~seed k = Int64.add (Int64.mul (Int64.of_int seed) 1_000_003L) (Int64.of_int k)

(* ----- per-repetition results ----- *)

(* Growable float buffer. *)
module Buf = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 256 0.0; n = 0 }

  let add b x =
    if b.n = Array.length b.a then begin
      let a = Array.make (2 * b.n) 0.0 in
      Array.blit b.a 0 a 0 b.n;
      b.a <- a
    end;
    b.a.(b.n) <- x;
    b.n <- b.n + 1

  let to_array b = Array.sub b.a 0 b.n
end

type step_result = {
  s_start : float;  (** measured window, simulated µs *)
  s_end : float;
  arrivals : int;  (** requests due inside the window *)
  completed_in : int;  (** replies delivered inside the window *)
  backlog_start : int;  (** due but unanswered at window start *)
  backlog_end : int;
  lat : float array;  (** due-to-reply latency of requests due in the window *)
  lat_read : float array;
  lat_write : float array;
  qwait : float array;  (** client-side wait for a window slot *)
  replies : float array;  (** reply times inside the window, ascending *)
}

type sim = {
  steps_r : step_result array;
  attempted : int;
  refused : int;  (** follower STALE or REFUSED replies *)
  unfinished : int;  (** no reply by the end of the drain *)
  wrong : int;  (** results that contradict the issued operations *)
  lateness_us : float;  (** worst generator lateness *)
  view_changes : int;
  safety : string;  (** "" when the Safety verdict holds *)
  identities_peak : int;
  committed_total : int;  (** replies delivered after set-up *)
}

type cost = {
  setup_cpu_s : float;
  sim_cpu_s : float;
  minor_words : float;
  major_collections : int;
  heap_peak_words : int;  (** largest major heap seen at a slice boundary *)
}

type hooks = {
  on_create : Cluster.t -> unit;  (** before any client exists *)
  on_slice : Cluster.t -> unit;  (** after every simulated slice *)
  on_window : [ `Start | `End ] -> Cluster.t -> unit;  (** reference step bounds *)
  span : 'a. string -> (unit -> 'a) -> 'a;  (** wall-clock span around a call *)
}

let no_hooks =
  { on_create = ignore;
    on_slice = ignore;
    on_window = (fun _ _ -> ());
    span = (fun _ f -> f ()) }

let slice_us = 1_000.0
let drain_limit_us = 5_000_000.0

(* ----- result checking ----- *)

(* Every value a PUT ever carried, per key: a GET must return one of them
   or the absent marker. *)
module Written = struct
  type t = (string, unit) Hashtbl.t

  let create () : t = Hashtbl.create 4096
  let note (t : t) key v = Hashtbl.replace t (key ^ "\000" ^ v) ()
  let mem (t : t) key v = Hashtbl.mem t (key ^ "\000" ^ v)
end

type expect = Put_ok | Get_of of string

(* A 10-byte PUT value carrying the confidentiality canary. *)
let value ~client ~i =
  let v = Printf.sprintf "%s%d:%d" Workload.canary client i in
  if String.length v >= 10 then String.sub v 0 10 else v ^ String.make (10 - String.length v) 'x'

let classify op =
  match Kvs.decode_op op with
  | Ok (Kvs.Put (k, v)) -> (Put_ok, Some (k, v))
  | Ok (Kvs.Get k) -> (Get_of k, None)
  | Ok (Kvs.Delete _) | Error _ -> failwith "perfbench: unexpected operation"

let result_ok written expect result =
  match expect with
  | Put_ok -> String.equal result Kvs.ok
  | Get_of k -> String.equal result Kvs.not_found || Written.mem written k result

(* ----- shared request accounting ----- *)

type acct = {
  engine : Engine.t;
  bounds : (float * float) array;  (** measured windows per step *)
  a_lat : Buf.t array;
  a_lat_read : Buf.t array;
  a_lat_write : Buf.t array;
  a_qwait : Buf.t array;
  a_replies : Buf.t array;
  a_arrivals : int array;
  a_completed_in : int array;
  due_times : Buf.t;  (** every due time, for backlog at window bounds *)
  done_times : Buf.t;
  mutable attempted : int;
  mutable refused : int;
  mutable wrong : int;
  mutable outstanding : int;
  mutable committed : int;
}

let acct engine bounds =
  let k = Array.length bounds in
  let bufs () = Array.init k (fun _ -> Buf.create ()) in
  { engine;
    bounds;
    a_lat = bufs ();
    a_lat_read = bufs ();
    a_lat_write = bufs ();
    a_qwait = bufs ();
    a_replies = bufs ();
    a_arrivals = Array.make k 0;
    a_completed_in = Array.make k 0;
    due_times = Buf.create ();
    done_times = Buf.create ();
    attempted = 0;
    refused = 0;
    wrong = 0;
    outstanding = 0;
    committed = 0 }

let step_of a t =
  let r = ref (-1) in
  Array.iteri (fun i (s, e) -> if t >= s && t < e then r := i) a.bounds;
  !r

let note_due a ~due =
  a.attempted <- a.attempted + 1;
  a.outstanding <- a.outstanding + 1;
  Buf.add a.due_times due;
  let i = step_of a due in
  if i >= 0 then a.a_arrivals.(i) <- a.a_arrivals.(i) + 1

(* A reply for a request due at [due]; [service_us] is the part the client
   spent with the request in flight, the rest waited for a window slot. *)
let note_reply a ~due ~service_us ~is_read ~outcome =
  let now = Engine.now a.engine in
  a.outstanding <- a.outstanding - 1;
  a.committed <- a.committed + 1;
  Buf.add a.done_times now;
  (match outcome with
  | `Ok -> ()
  | `Refused -> a.refused <- a.refused + 1
  | `Wrong -> a.wrong <- a.wrong + 1);
  let j = step_of a now in
  if j >= 0 then begin
    a.a_completed_in.(j) <- a.a_completed_in.(j) + 1;
    Buf.add a.a_replies.(j) now
  end;
  let i = step_of a due in
  if i >= 0 && outcome = `Ok then begin
    let l = now -. due in
    Buf.add a.a_lat.(i) l;
    Buf.add (if is_read then a.a_lat_read.(i) else a.a_lat_write.(i)) l;
    Buf.add a.a_qwait.(i) (Float.max 0.0 (l -. service_us))
  end

let count_below buf t =
  let n = ref 0 in
  for i = 0 to buf.Buf.n - 1 do
    if buf.Buf.a.(i) < t then incr n
  done;
  !n

let step_results a =
  Array.mapi
    (fun i (s, e) ->
      let backlog t = count_below a.due_times t - count_below a.done_times t in
      { s_start = s;
        s_end = e;
        arrivals = a.a_arrivals.(i);
        completed_in = a.a_completed_in.(i);
        backlog_start = backlog s;
        backlog_end = backlog e;
        lat = Buf.to_array a.a_lat.(i);
        lat_read = Buf.to_array a.a_lat_read.(i);
        lat_write = Buf.to_array a.a_lat_write.(i);
        qwait = Buf.to_array a.a_qwait.(i);
        replies = Buf.to_array a.a_replies.(i) })
    a.bounds

(* ----- the repetition ----- *)

let cpu () = Sys.time ()

(* Runs [cluster] in [slice_us] slices up to [until], or while [cond]
   holds when given. *)
let run_slices hooks cluster ?(cond = fun () -> true) until =
  let engine = Cluster.engine cluster in
  while Engine.now engine < until && cond () do
    Cluster.run cluster ~until_us:(Float.min until (Engine.now engine +. slice_us));
    hooks.on_slice cluster
  done

let window_bounds w ~t0 =
  let _, bounds =
    List.fold_left
      (fun (s, acc) st ->
        let e = s +. st.warm_us +. st.window_us in
        (e, (s +. st.warm_us, e) :: acc))
      (t0, []) (steps w)
  in
  Array.of_list (List.rev bounds)

type run = {
  cluster : Cluster.t;
  sim : sim;
  cost : cost;
}

(* Deploys the cluster and its connections (open loop) or drivers (closed
   loop) and runs until every client is attested: the set-up phase. *)
let deploy ?tracer hooks w ~seed =
  let cluster = hooks.span "cluster.create" (fun () -> Cluster.create ?tracer (w.params ~seed)) in
  hooks.on_create cluster;
  let scanner = Safety.install_scanner cluster in
  let connections, window =
    match w.shape with
    | Open { spec; _ } -> (spec.Ol.connections, spec.Ol.window)
    | Closed { drivers; _ } -> (drivers, 1)
  in
  let clients = Array.of_list (Cluster.make_clients cluster ~count:connections ~window ()) in
  let ready = ref 0 in
  Array.iter (fun c -> Client.start c ~on_ready:(fun () -> incr ready)) clients;
  hooks.span "clients.ready" (fun () ->
      run_slices hooks cluster ~cond:(fun () -> !ready < connections) drain_limit_us);
  if !ready < connections then failwith "perfbench: clients never became ready";
  (cluster, scanner, clients)

(* CPU seconds of one set-up alone. *)
let setup_only w ~seed =
  let c0 = cpu () in
  let _, _, clients = deploy no_hooks w ~seed in
  let c1 = cpu () in
  Array.iter Client.stop clients;
  c1 -. c0

let repetition ?tracer ?(hooks = no_hooks) w ~seed =
  let heap_peak = ref 0 in
  let hooks =
    { hooks with
      on_slice =
        (fun c ->
          heap_peak := max !heap_peak (Gc.quick_stat ()).Gc.heap_words;
          hooks.on_slice c) }
  in
  let c0 = cpu () in
  let cluster, scanner, clients = deploy ?tracer hooks w ~seed in
  let connections = Array.length clients in
  let engine = Cluster.engine cluster in
  let written = Written.create () in
  let lateness = ref 0.0 in
  let identities_peak = ref 0 in
  let c1 = cpu () in
  let gc0 = Gc.quick_stat () in
  let t0 = Engine.now engine in
  let bounds = window_bounds w ~t0 in
  let a = acct engine bounds in
  let t_stop = snd bounds.(Array.length bounds - 1) in
  (match w.shape with
  | Open { spec; steps; fault } ->
    List.iteri
      (fun si st ->
        let s = fst bounds.(si) -. st.warm_us and e = snd bounds.(si) in
        let g =
          Ol.gen
            ~seed:(Int64.add seed (Int64.of_int (1_000 * si)))
            { spec with Ol.rate_ops = st.rate }
        in
        let arrive due =
          let now = Engine.now engine in
          lateness := Float.max !lateness (Float.abs (now -. due));
          let identity, op, _ = Ol.next g in
          identities_peak := max !identities_peak (Ol.live_identities_peak g);
          let expect, put = classify op in
          Option.iter (fun (k, v) -> Written.note written k v) put;
          note_due a ~due:now;
          let conn = clients.(identity mod connections) in
          Client.submit conn ~op ~on_result:(fun ~latency_us ~result ->
              let outcome = if result_ok written expect result then `Ok else `Wrong in
              note_reply a ~due:now ~service_us:latency_us
                ~is_read:(match expect with Get_of _ -> true | Put_ok -> false)
                ~outcome)
        in
        (* One pending arrival at a time: each fires, then schedules the
           next of its step. *)
        let rec schedule_from t =
          let due = t +. Ol.interarrival g ~now:t in
          if due < e then
            ignore
              (Engine.schedule engine ~delay:(due -. Engine.now engine) ~label:"perfbench:arrival"
                 (fun () ->
                   arrive due;
                   schedule_from due))
        in
        if si = 0 then schedule_from s
        else
          ignore
            (Engine.schedule engine ~delay:(s -. t0) ~label:"perfbench:step" (fun () ->
                 schedule_from s)))
      steps;
    Option.iter
      (fun f ->
        let s0 = fst bounds.(0) in
        ignore
          (Engine.schedule engine ~delay:(s0 +. f.crash_after_us -. t0) ~label:"perfbench:crash"
             (fun () -> Cluster.crash_host cluster 0));
        ignore
          (Engine.schedule engine ~delay:(s0 +. f.restart_after_us -. t0)
             ~label:"perfbench:restart" (fun () -> Cluster.restart_host cluster 0)))
      fault
  | Closed { drivers; read_ratio; zipf_s; keyspace; read_retry_us; _ } ->
    let net = Cluster.network cluster in
    let followers = Array.of_list (Cluster.followers cluster) in
    let nf = Array.length followers in
    if nf = 0 then failwith "perfbench: closed-loop reads need followers";
    let zipf = Zipf.create ~s:zipf_s ~n:keyspace () in
    for ci = 0 to drivers - 1 do
      let writer = clients.(ci) in
      let rid = Workload.Reads.read_client_base + ci in
      let rng = Rng.of_key seed ~domain:"perfbench-reads" ~stream:(Int64.of_int ci) in
      let ts = ref 0L and i = ref 0 in
      let pending = ref None in
      let rec step () =
        if Engine.now engine < t_stop then begin
          incr i;
          let due = Engine.now engine in
          note_due a ~due;
          let key = Printf.sprintf "key-%d" (Zipf.sample zipf rng) in
          if Rng.float rng 1.0 < read_ratio then begin
            ts := Int64.add !ts 1L;
            let my_ts = !ts in
            pending := Some (my_ts, due, key);
            let op = Entry.seal_read_op ~client:rid ~ts:my_ts (Kvs.encode_op (Kvs.Get key)) in
            let payload =
              Message.encode (Message.Read_request { rr_client = rid; rr_ts = my_ts; rr_op = op })
            in
            let rec send attempt =
              let fo = followers.((ci + Int64.to_int my_ts + attempt) mod nf) in
              Network.send net ~src:(Addr.client rid) ~dst:(Addr.follower (Follower.fid fo))
                payload;
              ignore
                (Engine.schedule engine ~delay:read_retry_us ~label:"perfbench:read-retry"
                   (fun () ->
                     match !pending with
                     | Some (ts', _, _) when Int64.equal ts' my_ts -> send (attempt + 1)
                     | _ -> ()))
            in
            send 0
          end
          else begin
            let v = value ~client:ci ~i:!i in
            Written.note written key v;
            Client.submit writer ~op:(Kvs.encode_op (Kvs.Put (key, v)))
              ~on_result:(fun ~latency_us ~result ->
                let outcome = if String.equal result Kvs.ok then `Ok else `Wrong in
                note_reply a ~due ~service_us:latency_us ~is_read:false ~outcome;
                step ())
          end
        end
      in
      Network.register net (Addr.client rid) (fun ~src:_ payload ->
          match Message.decode payload with
          | Ok (Message.Read_reply rd) -> (
            match !pending with
            | Some (ts', due, key) when Int64.equal rd.rd_ts ts' ->
              pending := None;
              let outcome =
                if String.equal rd.rd_result Follower.stale_result
                   || String.equal rd.rd_result Follower.bad_op_result
                then `Refused
                else
                  match Entry.open_read_result ~client:rid ~ts:ts' rd.rd_result with
                  | Ok r when result_ok written (Get_of key) r -> `Ok
                  | Ok _ | Error _ -> `Wrong
              in
              note_reply a ~due ~service_us:(Engine.now engine -. due) ~is_read:true ~outcome;
              step ()
            | _ -> ())
          | Ok _ | Error _ -> ());
      step ()
    done);
  (* Measured run, reference-window hooks at the window bounds, then a
     drain so every request due in a window gets its reply or counts as
     unfinished. *)
  let rs, re = bounds.(w.ref_step) in
  hooks.span "cluster.run" (fun () ->
      run_slices hooks cluster rs;
      hooks.on_window `Start cluster;
      run_slices hooks cluster re;
      hooks.on_window `End cluster;
      run_slices hooks cluster t_stop);
  hooks.span "cluster.drain" (fun () ->
      run_slices hooks cluster ~cond:(fun () -> a.outstanding > 0) (t_stop +. drain_limit_us));
  let c2 = cpu () in
  let gc1 = Gc.quick_stat () in
  Array.iter Client.stop clients;
  let nodes = Cluster.nodes cluster in
  let honest = List.init (List.length nodes) Fun.id in
  let verdict =
    Safety.verdict cluster ~honest ~scanner ~min_completed:1
      ~workload:
        { Workload.throughput_ops = 0.0;
          mean_latency_us = 0.0;
          p50_latency_us = 0.0;
          p99_latency_us = 0.0;
          completed = a.committed;
          completed_total = a.committed;
          wrong_results = a.wrong;
          clients_ready = connections }
  in
  let safety =
    if verdict.Safety.safe && verdict.Safety.confidential && verdict.Safety.live then ""
    else verdict.Safety.detail
  in
  let sim =
    { steps_r = step_results a;
      attempted = a.attempted;
      refused = a.refused;
      unfinished = a.outstanding;
      wrong = a.wrong;
      lateness_us = !lateness;
      view_changes = List.fold_left (fun m n -> max m (Cluster.view_of n)) 0 nodes;
      safety;
      identities_peak = !identities_peak;
      committed_total = a.committed }
  in
  { cluster;
    sim;
    cost =
      { setup_cpu_s = c1 -. c0;
        sim_cpu_s = c2 -. c1;
        minor_words = gc1.Gc.minor_words -. gc0.Gc.minor_words;
        major_collections = gc1.Gc.major_collections - gc0.Gc.major_collections;
        heap_peak_words = !heap_peak } }
