(* Differential property test over the shared consensus core.

   The monolithic PBFT baseline and the SplitBFT compartment pipeline now
   both sit on [lib/consensus]. This suite drives both through identical
   seeded scenarios — a single client with window 1, an order-sensitive KVS
   workload (interleaved overwrites + reads), a primary crash forcing a
   view change, and checkpoint rounds every 8 sequence numbers — and checks
   that commit order, every reply, and the final application digest agree
   across the two protocol stacks, for several RNG seeds. *)

module Engine = Splitbft_sim.Engine
module Network = Splitbft_sim.Network
module Pbft = Splitbft_pbft.Replica
module Split = Splitbft_core.Replica
module Config = Splitbft_core.Config
module Execution = Splitbft_core.Execution
module Client = Splitbft_client.Client
module Kvs = Splitbft_app.Kvs
module Catchup = Splitbft_consensus.Catchup
module Batcher = Splitbft_consensus.Batcher

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

(* Overwrites cycle over three keys and reads observe earlier writes, so
   the final digest and the reply stream are both order-sensitive: any
   divergence in commit order between the two stacks shows up either in a
   GET reply or in the final state digest. *)
let workload n =
  List.init n (fun i ->
      if i mod 5 = 4 then Kvs.Get ("k" ^ string_of_int (i mod 3))
      else Kvs.Put ("k" ^ string_of_int (i mod 3), "v" ^ string_of_int i))

type trace = {
  completed : int;
  results : string array;  (** reply per op, indexed by submission order *)
  digests : string list;  (** final app digest per surviving replica *)
  views : int list;
  stables : int list;  (** low watermark / last stable per survivor *)
  execs : int list;  (** executed-op count per survivor *)
}

(* After the SplitBFT client handshake settles, but well before a
   window-1 client can push the whole workload through. *)
let crash_at = 10_000.0
let horizon = 15_000_000.0

let drive ?(n = 4) engine net mode ~ops =
  let ops_l = workload ops in
  let results = Array.make ops "<none>" in
  let completed = ref 0 in
  let cl =
    Client.create engine net
      { (Client.default_config mode ~n ~id:0) with
        Client.window = 1;
        retry_timeout_us = 300_000.0 }
  in
  Client.start cl ~on_ready:(fun () ->
      List.iteri
        (fun i op ->
          Client.submit cl ~op:(Kvs.encode_op op)
            ~on_result:(fun ~latency_us:_ ~result ->
              incr completed;
              results.(i) <- result))
        ops_l);
  Engine.run ~until:horizon engine;
  (!completed, results)

let run_pbft ~seed ~ops =
  let engine = Engine.create ~seed () in
  let net = Network.create engine Network.default_config in
  let replicas =
    List.init 4 (fun i ->
        Pbft.create engine net
          { (Pbft.default_config ~n:4 ~id:i) with
            Pbft.batch_size = 1;
            checkpoint_interval = 8;
            suspect_timeout_us = 200_000.0;
            viewchange_timeout_us = 400_000.0 }
          ~app:(Kvs.create ()))
  in
  ignore
    (Engine.schedule engine ~delay:crash_at ~label:"crash-primary" (fun () ->
         Pbft.crash (List.nth replicas 0)));
  let completed, results = drive engine net Client.Pbft ~ops in
  let survivors = List.filteri (fun i _ -> i > 0) replicas in
  {
    completed;
    results;
    digests = List.map Pbft.app_digest survivors;
    views = List.map Pbft.view survivors;
    stables = List.map Pbft.low_watermark survivors;
    execs = List.map Pbft.executed_count survivors;
  }

(* [lanes]/[workers] exercise the pipelined-consensus and worker-pool
   paths; at the defaults the run is the historical serial pipeline.
   [net_cfg] lets the split stack run over lossy links (replies and
   digests must still match the PBFT trace taken on the default network).
   [restart] brings the crashed primary back mid-run, so recovery must
   re-derive every lane cursor consistently. *)
let run_split ?(lanes = 1) ?(workers = 1) ?(net_cfg = Network.default_config)
    ?(restart = false) ~seed ~ops () =
  let engine = Engine.create ~seed () in
  let net = Network.create engine net_cfg in
  let replicas =
    List.init 4 (fun i ->
        Split.create engine net
          { (Config.default ~n:4 ~id:i) with
            Config.checkpoint_interval = 8;
            suspect_timeout_us = 200_000.0;
            viewchange_timeout_us = 400_000.0;
            lanes;
            exec_workers = workers }
          ~app:(fun () -> Kvs.create ()))
  in
  ignore
    (Engine.schedule engine ~delay:crash_at ~label:"crash-primary-host" (fun () ->
         Split.crash_host (List.nth replicas 0)));
  if restart then
    ignore
      (Engine.schedule engine ~delay:(crash_at +. 2_000_000.0)
         ~label:"restart-primary-host" (fun () ->
           Split.restart_host (List.nth replicas 0)));
  let completed, results =
    drive engine net (Client.Splitbft { ready_quorum = 4 }) ~ops
  in
  if restart then begin
    let r0 = List.nth replicas 0 in
    checkb "restarted primary recovered" true (Split.recovered r0);
    checkb "restarted primary re-executed" true (Split.executed_count r0 > 0)
  end;
  let survivors = List.filteri (fun i _ -> i > 0) replicas in
  {
    completed;
    results;
    digests = List.map Split.app_digest survivors;
    views = List.map Split.view survivors;
    stables =
      List.map (fun r -> (Split.exec_probe r).Execution.last_stable ()) survivors;
    execs = List.map Split.executed_count survivors;
  }

(* [allow_laggards] relaxes the all-survivors digest check to the
   survivors that executed the full prefix.  Under lossy links with the
   primary crashed (f = 1 of n = 4), checkpoints need every survivor, so
   one survivor missing a tail Commit to message loss holds a shorter —
   but prefix-consistent — state forever once the client stops driving
   traffic; there is no commit anti-entropy.  At least two survivors
   must still hold the complete, identical state. *)
let check_internal_agreement ?(allow_laggards = false) label t =
  let mx = List.fold_left max 0 t.execs in
  let complete =
    List.filteri (fun i _ -> List.nth t.execs i = mx) t.digests
  in
  if allow_laggards then
    checkb
      (label ^ ": at least two survivors hold the full state")
      true
      (List.length complete >= 2)
  else
    checki (label ^ ": all survivors executed the full prefix")
      (List.length t.digests) (List.length complete);
  (match complete with
  | [] -> Alcotest.fail (label ^ ": no survivors")
  | d :: rest ->
      List.iter (fun d' -> checks (label ^ ": replicas agree on state") d d') rest);
  List.iter
    (fun v -> checkb (label ^ ": view change happened") true (v >= 1))
    t.views;
  List.iter
    (fun s -> checkb (label ^ ": checkpoint round stabilised") true (s >= 8))
    t.stables

(* Digest of a survivor that executed the full prefix. *)
let complete_digest t =
  let mx = List.fold_left max 0 t.execs in
  let rec pick ds es =
    match (ds, es) with
    | d :: _, e :: _ when e = mx -> d
    | _ :: ds, _ :: es -> pick ds es
    | _ -> failwith "no survivors"
  in
  pick t.digests t.execs

let check_seed ?lanes ?workers ?net_cfg ?restart ?allow_laggards seed =
  let ops = 60 in
  let p = run_pbft ~seed ~ops in
  let s = run_split ?lanes ?workers ?net_cfg ?restart ~seed ~ops () in
  let tag fmt = Printf.sprintf fmt (Int64.to_string seed) in
  checki (tag "seed %s: pbft all ops complete") ops p.completed;
  checki (tag "seed %s: split all ops complete") ops s.completed;
  check_internal_agreement ?allow_laggards (tag "seed %s: pbft") p;
  check_internal_agreement ?allow_laggards (tag "seed %s: split") s;
  Array.iteri
    (fun i rp ->
      checks (Printf.sprintf "seed %s: reply %d identical" (Int64.to_string seed) i)
        rp s.results.(i))
    p.results;
  checks (tag "seed %s: final state digest identical")
    (complete_digest p) (complete_digest s)

let test_differential_seed_11 () = check_seed 11L
let test_differential_seed_23 () = check_seed 23L
let test_differential_seed_47 () = check_seed 47L

(* The same differential property with the pipeline actually pipelined:
   multiple consensus lanes in flight and a parallel Execution worker
   pool must not change a single reply byte or the final digest, under a
   view change (every run crashes the primary), crash-recovery, and lossy
   links. *)
let lossy = { Network.default_config with Network.drop_probability = 0.02 }

let test_lanes_view_change () = check_seed ~lanes:4 ~workers:4 11L
let test_lanes_recovery () = check_seed ~lanes:2 ~workers:3 ~restart:true 23L
let test_lanes_lossy () =
  check_seed ~lanes:4 ~workers:2 ~net_cfg:lossy ~allow_laggards:true 47L

(* ----- functor-rewiring safety net -----

   The same closed-loop run driven twice: once through the
   Cluster/PROTOCOL functor harness and once by constructing the replica
   stack directly, mirroring exactly the configuration the protocol
   instance derives in [config_of_shared].  Every reply byte, the
   executed-op counts and the final application digests must be identical
   — for each built-in protocol, including SplitBFT with the pipeline
   actually pipelined (lanes > 1, workers > 1).  Any behavioural drift
   introduced by the functor layer shows up as a byte diff here. *)

module Cluster = Splitbft_harness.Cluster
module Minbft = Splitbft_minbft.Replica
module Proto = Splitbft_proto

type flat = {
  f_completed : int;
  f_results : string array;
  f_digests : string list;  (** final app digest per survivor, in id order *)
  f_execs : int list;
}

(* The shared-knob overrides every run in this suite uses (checkpoint
   rounds every 8 seqnos, aggressive suspicion so the post-crash view
   change happens early). *)
let ckpt_interval = 8
let suspect_us = 200_000.0

let flat_of_harness protocol ~seed ~ops =
  let params =
    { (Cluster.default_params protocol) with
      Cluster.checkpoint_interval = ckpt_interval;
      suspect_timeout_us = suspect_us;
      seed }
  in
  let cluster = Cluster.create params in
  let engine = Cluster.engine cluster in
  let net = Cluster.network cluster in
  ignore
    (Engine.schedule engine ~delay:crash_at ~label:"crash-primary-host" (fun () ->
         Cluster.crash_host cluster 0));
  let n = params.Cluster.n in
  let mode = Cluster.Proto.client_protocol protocol ~n ~ready_quorum:None in
  let completed, results = drive ~n engine net mode ~ops in
  let survivors = List.filteri (fun i _ -> i > 0) (Cluster.nodes cluster) in
  { f_completed = completed;
    f_results = results;
    f_digests = List.map Cluster.app_digest_of survivors;
    f_execs = List.map Cluster.executed_count_of survivors }

let flat_of_direct_pbft ~seed ~ops =
  let engine = Engine.create ~seed () in
  let net = Network.create engine Network.default_config in
  let replicas =
    List.init 4 (fun i ->
        Pbft.create engine net
          { (Pbft.default_config ~n:4 ~id:i) with
            Pbft.batch_size = 1;
            batch_timeout_us = 10_000.0;
            checkpoint_interval = ckpt_interval;
            suspect_timeout_us = suspect_us }
          ~app:(Kvs.create ()))
  in
  ignore
    (Engine.schedule engine ~delay:crash_at ~label:"crash-primary-host" (fun () ->
         Pbft.crash (List.nth replicas 0)));
  let completed, results = drive engine net Client.Pbft ~ops in
  let survivors = List.filteri (fun i _ -> i > 0) replicas in
  { f_completed = completed;
    f_results = results;
    f_digests = List.map Pbft.app_digest survivors;
    f_execs = List.map Pbft.executed_count survivors }

let flat_of_direct_minbft ~seed ~ops =
  let engine = Engine.create ~seed () in
  let net = Network.create engine Network.default_config in
  let replicas =
    List.init 3 (fun i ->
        Minbft.create engine net
          { (Minbft.default_config ~n:3 ~id:i) with
            Minbft.batch_size = 1;
            batch_timeout_us = 10_000.0;
            checkpoint_interval = ckpt_interval;
            suspect_timeout_us = suspect_us }
          ~app:(Kvs.create ()))
  in
  ignore
    (Engine.schedule engine ~delay:crash_at ~label:"crash-primary-host" (fun () ->
         Minbft.crash (List.nth replicas 0)));
  let completed, results = drive ~n:3 engine net Client.Minbft ~ops in
  let survivors = List.filteri (fun i _ -> i > 0) replicas in
  { f_completed = completed;
    f_results = results;
    f_digests = List.map Minbft.app_digest survivors;
    f_execs = List.map Minbft.executed_count survivors }

let flat_of_direct_split ?(lanes = 1) ?(workers = 1) ~seed ~ops () =
  let engine = Engine.create ~seed () in
  let net = Network.create engine Network.default_config in
  let replicas =
    List.init 4 (fun i ->
        Split.create engine net
          { (Config.default ~n:4 ~id:i) with
            Config.batch_size = 1;
            batch_timeout_us = 10_000.0;
            checkpoint_interval = ckpt_interval;
            suspect_timeout_us = suspect_us;
            lanes;
            exec_workers = workers }
          ~app:(fun () -> Kvs.create ()))
  in
  ignore
    (Engine.schedule engine ~delay:crash_at ~label:"crash-primary-host" (fun () ->
         Split.crash_host (List.nth replicas 0)));
  let completed, results =
    drive engine net (Client.Splitbft { ready_quorum = 4 }) ~ops
  in
  let survivors = List.filteri (fun i _ -> i > 0) replicas in
  { f_completed = completed;
    f_results = results;
    f_digests = List.map Split.app_digest survivors;
    f_execs = List.map Split.executed_count survivors }

let check_functor_identical name ~ops direct harness =
  checki (name ^ ": all ops complete") ops direct.f_completed;
  checki (name ^ ": completed identical") direct.f_completed harness.f_completed;
  Array.iteri
    (fun i rd ->
      checks (Printf.sprintf "%s: reply %d identical" name i) rd harness.f_results.(i))
    direct.f_results;
  List.iter2
    (fun dd hd -> checks (name ^ ": survivor digest identical") dd hd)
    direct.f_digests harness.f_digests;
  List.iter2
    (fun de he -> checki (name ^ ": survivor exec count identical") de he)
    direct.f_execs harness.f_execs

let test_functor_pbft () =
  let ops = 60 and seed = 11L in
  check_functor_identical "pbft" ~ops
    (flat_of_direct_pbft ~seed ~ops)
    (flat_of_harness Proto.Proto_pbft.protocol ~seed ~ops)

let test_functor_minbft () =
  let ops = 60 and seed = 23L in
  check_functor_identical "minbft" ~ops
    (flat_of_direct_minbft ~seed ~ops)
    (flat_of_harness Proto.Proto_minbft.protocol ~seed ~ops)

let test_functor_splitbft () =
  let ops = 60 and seed = 11L in
  check_functor_identical "splitbft" ~ops
    (flat_of_direct_split ~seed ~ops ())
    (flat_of_harness Proto.Proto_splitbft.protocol ~seed ~ops)

let test_functor_splitbft_lanes () =
  let ops = 60 and seed = 47L in
  check_functor_identical "splitbft l4w4" ~ops
    (flat_of_direct_split ~lanes:4 ~workers:4 ~seed ~ops ())
    (flat_of_harness (Proto.Proto_splitbft.make ~lanes:4 ~exec_workers:4 ()) ~seed ~ops)

(* ----- catch-up tally ----- *)

let target = Alcotest.(option (pair int int))

let test_catchup_inflated_claims () =
  (* f = 2: two liars claim absurd heights and views; the target is the
     third highest claim, which an honest replier made. *)
  let c = Catchup.create ~f:2 ~compare:Int.compare in
  Catchup.reply c ~replier:5 ~height:1_000_000 ~view:900;
  Catchup.reply c ~replier:6 ~height:999_999 ~view:901;
  Alcotest.check target "liars alone set nothing" None (Catchup.target c);
  Catchup.reply c ~replier:1 ~height:40 ~view:3;
  Alcotest.check target "f+1-th claim is honest" (Some (40, 3)) (Catchup.target c);
  Catchup.reply c ~replier:2 ~height:48 ~view:2;
  Catchup.reply c ~replier:3 ~height:44 ~view:4;
  Alcotest.check target "ranked separately" (Some (48, 4)) (Catchup.target c);
  (* Polymorphic in the height: MinBFT's USIG counters. *)
  let m = Catchup.create ~f:1 ~compare:Int64.compare in
  Catchup.reply m ~replier:0 ~height:Int64.max_int ~view:7;
  Catchup.reply m ~replier:2 ~height:12L ~view:1;
  Alcotest.(check (option (pair int64 int))) "int64 heights" (Some (12L, 1)) (Catchup.target m)

let test_catchup_retry_replaces () =
  let c = Catchup.create ~f:1 ~compare:Int.compare in
  Catchup.reply c ~replier:1 ~height:10 ~view:0;
  Catchup.reply c ~replier:1 ~height:12 ~view:1;
  Alcotest.check target "one replier's two replies are not f+1" None (Catchup.target c);
  Catchup.reply c ~replier:2 ~height:30 ~view:1;
  Alcotest.check target "live reply only" (Some (12, 1)) (Catchup.target c);
  (* A retry round may report less: it still replaces the earlier reply. *)
  Catchup.reply c ~replier:2 ~height:8 ~view:0;
  Alcotest.check target "shorter retry supersedes" (Some (8, 0)) (Catchup.target c);
  Catchup.reset c;
  Alcotest.check target "reset" None (Catchup.target c)

let test_catchup_vouch_needs_f1_matching () =
  let c = Catchup.create ~f:1 ~compare:Int64.compare in
  let vouch replier digest = Catchup.vouch c ~key:7L ~replier ~digest in
  checkb "one replier" false (vouch 1 "a");
  checkb "same replier again" false (vouch 1 "a");
  checkb "second replier disagrees" false (vouch 2 "b");
  checkb "f+1 distinct repliers agree" true (vouch 3 "a");
  checkb "other keys unaffected" false (Catchup.vouch c ~key:8L ~replier:3 ~digest:"a");
  Catchup.forget c 7L;
  checkb "forgotten key starts over" false (vouch 1 "a");
  Catchup.reset c;
  checkb "reset starts over" false (vouch 3 "a")

(* ----- request batcher ----- *)

let req client timestamp =
  { Splitbft_types.Message.client; timestamp; payload = ""; auth = "" }

(* (client, timestamp) of each request, in list order. *)
let keys =
  List.map (fun (r : Splitbft_types.Message.request) -> (r.client, r.timestamp))

let key_list = Alcotest.(list (pair int int64))

let test_batcher_fifo_interleaved () =
  let b = Batcher.create () in
  List.iter (fun ts -> checkb "fresh push" true (Batcher.push b (req 1 ts))) [ 1L; 2L; 3L ];
  Alcotest.check key_list "oldest two first" [ (1, 1L); (1, 2L) ]
    (keys (Batcher.take b ~max:2));
  checkb "push after take" true (Batcher.push b (req 2 1L));
  checkb "push after take" true (Batcher.push b (req 1 4L));
  Alcotest.check key_list "leftover, then arrivals in order"
    [ (1, 3L); (2, 1L) ]
    (keys (Batcher.take b ~max:2));
  checkb "push" true (Batcher.push b (req 3 1L));
  let seen = ref [] in
  Batcher.iter b (fun r -> seen := r :: !seen);
  Alcotest.check key_list "iter walks oldest first" [ (1, 4L); (3, 1L) ]
    (keys (List.rev !seen));
  Alcotest.check key_list "drained in order" [ (1, 4L); (3, 1L) ]
    (keys (Batcher.take b ~max:10))

let test_batcher_dedup () =
  let b = Batcher.create () in
  checkb "first push" true (Batcher.push b (req 7 5L));
  checkb "same client and timestamp rejected" false
    (Batcher.push b { (req 7 5L) with payload = "other bytes" });
  checkb "same timestamp, other client" true (Batcher.push b (req 8 5L));
  checkb "same client, other timestamp" true (Batcher.push b (req 7 6L));
  checki "rejected push left no copy" 3 (Batcher.length b);
  Alcotest.check key_list "taken" [ (7, 5L) ] (keys (Batcher.take b ~max:1));
  checkb "accepted again once taken" true (Batcher.push b (req 7 5L));
  checkb "and rejected again while queued" false (Batcher.push b (req 7 5L));
  Alcotest.check key_list "re-pushed request queues at the tail"
    [ (8, 5L); (7, 6L); (7, 5L) ]
    (keys (Batcher.take b ~max:3))

let test_batcher_take_max () =
  let filled () =
    let b = Batcher.create () in
    List.iter (fun ts -> ignore (Batcher.push b (req 0 ts))) [ 1L; 2L; 3L ];
    b
  in
  let b = filled () in
  Alcotest.check key_list "max below length" [ (0, 1L); (0, 2L) ]
    (keys (Batcher.take b ~max:2));
  checki "one left" 1 (Batcher.length b);
  let b = filled () in
  checki "max equal to length" 3 (List.length (Batcher.take b ~max:3));
  checki "empty" 0 (Batcher.length b);
  let b = filled () in
  Alcotest.check key_list "max above length" [ (0, 1L); (0, 2L); (0, 3L) ]
    (keys (Batcher.take b ~max:10));
  checki "empty after" 0 (Batcher.length b);
  Alcotest.check key_list "take from empty" [] (keys (Batcher.take b ~max:4));
  let b = filled () in
  Alcotest.check key_list "max zero" [] (keys (Batcher.take b ~max:0));
  checki "untouched" 3 (Batcher.length b)

let test_batcher_clear () =
  let b = Batcher.create () in
  List.iter (fun ts -> ignore (Batcher.push b (req 0 ts))) [ 1L; 2L ];
  Batcher.clear b;
  checki "empty" 0 (Batcher.length b);
  Alcotest.check key_list "nothing to take" [] (keys (Batcher.take b ~max:5));
  checkb "membership cleared too" true (Batcher.push b (req 0 1L))

let test_batcher_next () =
  let decision =
    Alcotest.testable
      (fun ppf d ->
        Format.pp_print_string ppf
          (match d with Batcher.Flush -> "Flush" | Batcher.Arm -> "Arm" | Batcher.Idle -> "Idle"))
      ( = )
  in
  let with_len n =
    let b = Batcher.create () in
    for ts = 1 to n do
      ignore (Batcher.push b (req 0 (Int64.of_int ts)))
    done;
    b
  in
  List.iter
    (fun (len, batch_size, expected) ->
      Alcotest.check decision
        (Printf.sprintf "len %d, batch_size %d" len batch_size)
        expected
        (Batcher.next (with_len len) ~batch_size))
    [ (0, 1, Batcher.Idle);
      (0, 4, Batcher.Idle);
      (1, 4, Batcher.Arm);
      (3, 4, Batcher.Arm);
      (4, 4, Batcher.Flush);
      (9, 4, Batcher.Flush);
      (1, 1, Batcher.Flush) ];
  let b = with_len 5 in
  ignore (Batcher.take b ~max:4);
  Alcotest.check decision "after a flush leaves a partial batch" Batcher.Arm
    (Batcher.next b ~batch_size:4);
  ignore (Batcher.take b ~max:4);
  Alcotest.check decision "after a flush drains the queue" Batcher.Idle
    (Batcher.next b ~batch_size:4)

let suites =
  [ ( "consensus-differential",
      [
        Alcotest.test_case "pbft vs split, seed 11" `Slow test_differential_seed_11;
        Alcotest.test_case "pbft vs split, seed 23" `Slow test_differential_seed_23;
        Alcotest.test_case "pbft vs split, seed 47" `Slow test_differential_seed_47;
        Alcotest.test_case "lanes=4 workers=4, view change" `Slow
          test_lanes_view_change;
        Alcotest.test_case "lanes=2 workers=3, crash-recovery" `Slow
          test_lanes_recovery;
        Alcotest.test_case "lanes=4 workers=2, lossy links" `Slow test_lanes_lossy;
        Alcotest.test_case "functor vs direct: pbft" `Slow test_functor_pbft;
        Alcotest.test_case "functor vs direct: minbft" `Slow test_functor_minbft;
        Alcotest.test_case "functor vs direct: splitbft" `Slow test_functor_splitbft;
        Alcotest.test_case "functor vs direct: splitbft l4w4" `Slow
          test_functor_splitbft_lanes;
      ] );
    ( "catchup",
      [ Alcotest.test_case "inflated claims cannot set the target" `Quick
          test_catchup_inflated_claims;
        Alcotest.test_case "retry reply replaces" `Quick test_catchup_retry_replaces;
        Alcotest.test_case "vouch needs f+1 matching" `Quick test_catchup_vouch_needs_f1_matching
      ] );
    ( "batcher",
      [ Alcotest.test_case "fifo across interleaved push/take" `Quick
          test_batcher_fifo_interleaved;
        Alcotest.test_case "queued duplicate rejected" `Quick test_batcher_dedup;
        Alcotest.test_case "take ~max below/at/above length" `Quick test_batcher_take_max;
        Alcotest.test_case "clear" `Quick test_batcher_clear;
        Alcotest.test_case "next: size-or-timeout rule" `Quick test_batcher_next ] ) ]
