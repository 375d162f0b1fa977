module Engine = Splitbft_sim.Engine
module Network = Splitbft_sim.Network
module Replica = Splitbft_pbft.Replica
module Client = Splitbft_client.Client
module Kvs = Splitbft_app.Kvs

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

type cluster = {
  engine : Engine.t;
  net : Network.t;
  replicas : Replica.t list;
}

let make ?(n = 4) ?(batch_size = 1) ?(checkpoint_interval = 64) ?(net_cfg = Network.default_config)
    ?(suspect_timeout_us = 200_000.0) () =
  let engine = Engine.create ~seed:5L () in
  let net = Network.create engine net_cfg in
  let replicas =
    List.init n (fun i ->
        Replica.create engine net
          { (Replica.default_config ~n ~id:i) with
            Replica.batch_size;
            checkpoint_interval;
            suspect_timeout_us;
            viewchange_timeout_us = 400_000.0 }
          ~app:(Kvs.create ()))
  in
  { engine; net; replicas }

let client ?(window = 1) ?(id = 0) c =
  Client.create c.engine c.net
    { (Client.default_config Client.Pbft ~n:(List.length c.replicas) ~id) with
      Client.window;
      retry_timeout_us = 300_000.0 }

(* Issues [ops] PUTs through one client, returns (completed, wrong). *)
let drive ?(window = 1) ?(until = 5_000_000.0) c ~ops =
  let cl = client ~window c in
  let completed = ref 0 and wrong = ref 0 in
  Client.start cl ~on_ready:(fun () ->
      for i = 1 to ops do
        Client.submit cl
          ~op:(Kvs.encode_op (Kvs.Put (Printf.sprintf "k%d" i, "v")))
          ~on_result:(fun ~latency_us:_ ~result ->
            incr completed;
            if not (String.equal result Kvs.ok) then incr wrong)
      done);
  Engine.run ~until c.engine;
  (!completed, !wrong)

let agreement replicas =
  let logs = List.map Replica.executed_log replicas in
  let tables =
    List.map
      (fun log ->
        let t = Hashtbl.create 64 in
        List.iter (fun (seq, d) -> Hashtbl.replace t seq d) log;
        t)
      logs
  in
  List.for_all
    (fun ta ->
      List.for_all
        (fun tb ->
          Hashtbl.fold
            (fun seq da acc ->
              acc
              &&
              match Hashtbl.find_opt tb seq with
              | Some db -> String.equal da db
              | None -> true)
            ta true)
        tables)
    tables

let honest_subset c ids = List.filteri (fun i _ -> List.mem i ids) c.replicas

(* ----- tests ----- *)

let test_normal_operation () =
  let c = make () in
  let completed, wrong = drive c ~ops:30 in
  checki "all complete" 30 completed;
  checki "no wrong results" 0 wrong;
  checkb "agreement" true (agreement c.replicas);
  List.iter
    (fun r -> checki "all executed" 30 (Replica.executed_count r))
    c.replicas

let test_batching_reduces_consensus_instances () =
  let c = make ~batch_size:10 () in
  let completed, _ = drive ~window:30 c ~ops:30 in
  checki "all complete" 30 completed;
  let r = List.hd c.replicas in
  checkb "few sequence numbers used" true (Replica.last_executed r <= 6);
  checkb "agreement" true (agreement c.replicas)

let test_checkpoint_garbage_collection () =
  let c = make ~checkpoint_interval:8 () in
  let completed, _ = drive c ~ops:40 in
  checki "all complete" 40 completed;
  List.iter
    (fun r ->
      checkb "low watermark advanced" true (Replica.low_watermark r >= 8);
      checkb "watermark at a checkpoint multiple" true (Replica.low_watermark r mod 8 = 0))
    c.replicas

let test_backup_crash_tolerated () =
  let c = make () in
  ignore
    (Engine.schedule c.engine ~delay:50_000.0 ~label:"crash" (fun () ->
         Replica.crash (List.nth c.replicas 3)));
  let completed, wrong = drive c ~ops:40 in
  checki "all complete" 40 completed;
  checki "no wrong" 0 wrong;
  checkb "agreement among survivors" true (agreement (honest_subset c [ 0; 1; 2 ]))

let test_primary_crash_view_change () =
  let c = make () in
  ignore
    (Engine.schedule c.engine ~delay:5_000.0 ~label:"crash" (fun () ->
         Replica.crash (List.nth c.replicas 0)));
  let completed, _ = drive ~until:8_000_000.0 c ~ops:40 in
  checki "all complete despite primary crash" 40 completed;
  List.iter
    (fun r -> checkb "moved to a new view" true (Replica.view r >= 1))
    (honest_subset c [ 1; 2; 3 ]);
  checkb "agreement" true (agreement (honest_subset c [ 1; 2; 3 ]))

let test_byzantine_execution_masked () =
  let c = make () in
  Replica.set_byzantine (List.nth c.replicas 1) Replica.Corrupt_execution;
  let completed, wrong = drive c ~ops:30 in
  checki "all complete" 30 completed;
  checki "corrupt replies never accepted" 0 wrong

let test_mute_commits_tolerated () =
  let c = make () in
  Replica.set_byzantine (List.nth c.replicas 2) Replica.Mute_commits;
  let completed, wrong = drive c ~ops:30 in
  checki "progress with one mute replica" 30 completed;
  checki "no wrong" 0 wrong

let test_equivocation_beyond_f_diverges () =
  let c = make () in
  Replica.set_byzantine (List.nth c.replicas 0)
    (Replica.Equivocate { accomplices = [ 1 ] });
  Replica.set_byzantine (List.nth c.replicas 1) Replica.Collude;
  let _completed, _ = drive ~until:3_000_000.0 c ~ops:20 in
  checkb "honest replicas diverge with f+1 byzantine" false
    (agreement (honest_subset c [ 2; 3 ]))

let test_lossy_network_retransmission () =
  let net_cfg = { Network.default_config with Network.drop_probability = 0.05 } in
  let c = make ~net_cfg () in
  let completed, wrong = drive ~until:20_000_000.0 c ~ops:20 in
  checki "retransmission recovers all" 20 completed;
  checki "no wrong" 0 wrong;
  checkb "agreement" true (agreement c.replicas)

let test_duplicate_requests_execute_once () =
  let c = make () in
  let completed, _ = drive c ~ops:10 in
  checki "completed" 10 completed;
  let before = Replica.executed_count (List.hd c.replicas) in
  (* Replay the latest request verbatim from the client's address: the
     replicas must answer from the reply cache without re-executing. *)
  let replayed =
    let r =
      { Splitbft_types.Message.client = 0; timestamp = 10L;
        payload = Kvs.encode_op (Kvs.Put ("k10", "v")); auth = "" }
    in
    { r with
      Splitbft_types.Message.auth =
        Splitbft_types.Keys.make_authenticator ~protocol:"pbft" ~client:0 ~n:4
          (Splitbft_types.Message.request_auth_bytes r) }
  in
  let replies = ref 0 in
  Network.register c.net (Splitbft_types.Addr.client 0) (fun ~src:_ payload ->
      match Splitbft_types.Message.decode payload with
      | Ok (Splitbft_types.Message.Reply rp)
        when Int64.equal rp.Splitbft_types.Message.timestamp 10L ->
        incr replies
      | _ -> ());
  for j = 0 to 3 do
    Network.send c.net
      ~src:(Splitbft_types.Addr.client 0)
      ~dst:(Splitbft_types.Addr.replica j)
      (Splitbft_types.Message.encode (Splitbft_types.Message.Request replayed))
  done;
  Engine.run ~until:8_000_000.0 c.engine;
  checkb "cached replies resent" true (!replies >= 2);
  checki "nothing re-executed" before (Replica.executed_count (List.hd c.replicas))

let test_queued_retransmit_proposed_once () =
  (* The client retransmits while its request still waits in the primary's
     batch queue (batch 10, one request, so only the batch timer can flush
     it): the request is proposed in one PrePrepare slot and executed once
     at every replica. *)
  let module M = Splitbft_types.Message in
  let module Addr = Splitbft_types.Addr in
  let c = make ~batch_size:10 () in
  let r =
    let r =
      { M.client = 0; timestamp = 1L; payload = Kvs.encode_op (Kvs.Put ("k1", "v")); auth = "" }
    in
    { r with
      M.auth =
        Splitbft_types.Keys.make_authenticator ~protocol:"pbft" ~client:0 ~n:4
          (M.request_auth_bytes r) }
  in
  let proposed = ref 0 and replies = ref 0 in
  Network.add_tap c.net (fun ~src ~dst payload ->
      if src = Addr.replica 0 && dst = Addr.replica 1 then
        match M.decode payload with
        | Ok (M.Preprepare pp) ->
          proposed :=
            !proposed
            + List.length (List.filter (fun (q : M.request) -> q.timestamp = 1L) pp.batch)
        | _ -> ());
  Network.register c.net (Addr.client 0) (fun ~src:_ payload ->
      match M.decode payload with
      | Ok (M.Reply rp) when Int64.equal rp.M.timestamp 1L -> incr replies
      | _ -> ());
  for k = 0 to 2 do
    ignore
      (Engine.schedule c.engine
         ~delay:(float_of_int k *. 1_000.0)
         ~label:"retransmit"
         (fun () ->
           for j = 0 to 3 do
             Network.send c.net ~src:(Addr.client 0) ~dst:(Addr.replica j)
               (M.encode (M.Request r))
           done))
  done;
  Engine.run ~until:1_000_000.0 c.engine;
  checki "proposed once" 1 !proposed;
  List.iter (fun rep -> checki "executed once" 1 (Replica.executed_count rep)) c.replicas;
  checkb "answered" true (!replies >= 2);
  checkb "agreement" true (agreement c.replicas)

let test_pipelined_client_windows () =
  let c = make ~batch_size:20 () in
  let completed, wrong = drive ~window:25 c ~ops:100 in
  checki "pipelined completes" 100 completed;
  checki "no wrong" 0 wrong;
  checkb "agreement" true (agreement c.replicas)

let suites =
  [ ( "pbft",
      [ Alcotest.test_case "normal operation" `Quick test_normal_operation;
        Alcotest.test_case "batching" `Quick test_batching_reduces_consensus_instances;
        Alcotest.test_case "checkpoint GC" `Quick test_checkpoint_garbage_collection;
        Alcotest.test_case "backup crash" `Quick test_backup_crash_tolerated;
        Alcotest.test_case "primary crash / view change" `Quick test_primary_crash_view_change;
        Alcotest.test_case "byz execution masked" `Quick test_byzantine_execution_masked;
        Alcotest.test_case "mute commits tolerated" `Quick test_mute_commits_tolerated;
        Alcotest.test_case "f+1 equivocation diverges" `Quick test_equivocation_beyond_f_diverges;
        Alcotest.test_case "lossy network" `Slow test_lossy_network_retransmission;
        Alcotest.test_case "duplicates execute once" `Quick test_duplicate_requests_execute_once;
        Alcotest.test_case "queued retransmit proposed once" `Quick
          test_queued_retransmit_proposed_once;
        Alcotest.test_case "pipelined windows" `Quick test_pipelined_client_windows ] ) ]
