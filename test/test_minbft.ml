module Engine = Splitbft_sim.Engine
module Network = Splitbft_sim.Network
module Replica = Splitbft_minbft.Replica
module Usig = Splitbft_minbft.Usig
module Mmsg = Splitbft_minbft.Mmsg
module Client = Splitbft_client.Client
module Kvs = Splitbft_app.Kvs

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* ----- usig ----- *)

let test_usig_certificates () =
  let u = Usig.create ~id:0 in
  let ui1 = Usig.create_ui u "msg-a" in
  let ui2 = Usig.create_ui u "msg-b" in
  Alcotest.(check int64) "sequential" 1L ui1.Usig.counter;
  Alcotest.(check int64) "sequential 2" 2L ui2.Usig.counter;
  checkb "verifies" true (Usig.verify_ui ~id:0 ~msg:"msg-a" ui1);
  checkb "wrong message" false (Usig.verify_ui ~id:0 ~msg:"msg-b" ui1);
  checkb "wrong identity" false (Usig.verify_ui ~id:1 ~msg:"msg-a" ui1)

let test_usig_tamper_enables_duplicates () =
  let u = Usig.create ~id:7 in
  let ui_a = Usig.create_ui u "a" in
  Usig.tamper_set u (Int64.sub ui_a.Usig.counter 1L);
  let ui_b = Usig.create_ui u "b" in
  Alcotest.(check int64) "same counter twice" ui_a.Usig.counter ui_b.Usig.counter;
  checkb "both certify" true
    (Usig.verify_ui ~id:7 ~msg:"a" ui_a && Usig.verify_ui ~id:7 ~msg:"b" ui_b)

let test_usig_window () =
  let w = Usig.Window.create () in
  checkb "next" true (Usig.Window.admit w 1L = `Next);
  checkb "future held" true (Usig.Window.admit w 3L = `Future);
  checkb "gap fills" true (Usig.Window.admit w 2L = `Next);
  checkb "now next" true (Usig.Window.admit w 3L = `Next);
  checkb "replay rejected" true (Usig.Window.admit w 2L = `Seen)

let test_usig_codec () =
  let u = Usig.create ~id:3 in
  let ui = Usig.create_ui u "x" in
  match Usig.decode_ui (Usig.encode_ui ui) with
  | Ok ui' -> checkb "roundtrip" true (ui = ui')
  | Error e -> Alcotest.fail e

let test_mmsg_codec () =
  let u = Usig.create ~id:1 in
  let ui = Usig.create_ui u "c" in
  let msgs =
    [ Mmsg.Commit
        { Mmsg.c_view = 2; c_primary_counter = 9L; c_digest = String.make 32 'd';
          c_sender = 1; c_ui = ui };
      Mmsg.Viewchange { Mmsg.v_new_view = 3; v_sender = 1; v_ui = ui };
      Mmsg.Checkpoint
        { Mmsg.k_counter = 5L; k_state_digest = String.make 32 's'; k_sender = 1; k_ui = ui } ]
  in
  List.iter
    (fun m ->
      match Mmsg.decode (Mmsg.encode m) with
      | Ok m' -> checkb "roundtrip" true (m = m')
      | Error e -> Alcotest.fail e)
    msgs;
  checkb "minbft payload flagged" true (Mmsg.is_minbft_payload (Mmsg.encode (List.hd msgs)));
  checkb "shared payload not flagged" false (Mmsg.is_minbft_payload "\x01junk")

(* ----- integration ----- *)

type cluster = {
  engine : Engine.t;
  net : Network.t;
  replicas : Replica.t list;
}

let make ?(n = 3) ?(batch_size = 1) () =
  let engine = Engine.create ~seed:6L () in
  let net = Network.create engine Network.default_config in
  let replicas =
    List.init n (fun i ->
        Replica.create engine net
          { (Replica.default_config ~n ~id:i) with
            Replica.suspect_timeout_us = 200_000.0;
            batch_size }
          ~app:(Kvs.create ()))
  in
  { engine; net; replicas }

let drive ?(window = 1) ?(until = 5_000_000.0) c ~ops =
  let cl =
    Client.create c.engine c.net
      { (Client.default_config Client.Minbft ~n:(List.length c.replicas) ~id:0) with
        Client.window }
  in
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
  match logs with
  | [] -> true
  | first :: rest ->
    List.for_all
      (fun log ->
        let shorter, longer =
          if List.length log < List.length first then (log, first) else (first, log)
        in
        List.for_all2
          (fun a b -> a = b)
          shorter
          (List.filteri (fun i _ -> i < List.length shorter) longer))
      rest

let test_normal_operation () =
  let c = make () in
  let completed, wrong = drive c ~ops:30 in
  checki "all complete" 30 completed;
  checki "no wrong" 0 wrong;
  checkb "agreement" true (agreement c.replicas);
  List.iter (fun r -> checki "executed everywhere" 30 (Replica.executed_count r)) c.replicas

let test_batching () =
  (* 30 requests in flight at once against batches of 10: a handful of
     Prepares orders them all, each request exactly once. *)
  let c = make ~batch_size:10 () in
  let completed, wrong = drive ~window:30 c ~ops:30 in
  checki "all complete" 30 completed;
  checki "no wrong" 0 wrong;
  checkb "agreement" true (agreement c.replicas);
  List.iter
    (fun r ->
      checki "each request executed once" 30 (Replica.executed_count r);
      checkb "few batches ordered" true (List.length (Replica.executed_log r) <= 6))
    c.replicas

let test_queued_retransmit_proposed_once () =
  (* The client retransmits while its request still waits in the primary's
     batch queue (batch 10, one request, so only the batch timer can flush
     it): the request is proposed in one Prepare and executed once at
     every replica. *)
  let module M = Splitbft_types.Message in
  let module Addr = Splitbft_types.Addr in
  let c = make ~batch_size:10 () in
  let n = List.length c.replicas in
  let r =
    let r =
      { M.client = 0; timestamp = 1L; payload = Kvs.encode_op (Kvs.Put ("k1", "v")); auth = "" }
    in
    { r with
      M.auth =
        Splitbft_types.Keys.make_authenticator ~protocol:"minbft" ~client:0 ~n
          (M.request_auth_bytes r) }
  in
  let proposed = ref 0 and replies = ref 0 in
  Network.add_tap c.net (fun ~src ~dst payload ->
      if src = Addr.replica 0 && dst = Addr.replica 1 && Mmsg.is_minbft_payload payload then
        match Mmsg.decode payload with
        | Ok (Mmsg.Prepare p) ->
          proposed :=
            !proposed
            + List.length
                (List.filter (fun (q : M.request) -> q.timestamp = 1L) p.Mmsg.p_batch)
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
           for j = 0 to n - 1 do
             Network.send c.net ~src:(Addr.client 0) ~dst:(Addr.replica j)
               (M.encode (M.Request r))
           done))
  done;
  Engine.run ~until:1_000_000.0 c.engine;
  checki "proposed once" 1 !proposed;
  List.iter (fun rep -> checki "executed once" 1 (Replica.executed_count rep)) c.replicas;
  checkb "answered" true (!replies >= 2);
  checkb "agreement" true (agreement c.replicas)

let test_backup_crash () =
  let c = make () in
  ignore
    (Engine.schedule c.engine ~delay:30_000.0 ~label:"crash" (fun () ->
         Replica.crash (List.nth c.replicas 2)));
  let completed, wrong = drive c ~ops:30 in
  checki "f=1 crash tolerated with n=3" 30 completed;
  checki "no wrong" 0 wrong

let test_byz_execution_masked () =
  let c = make () in
  Replica.set_byzantine (List.nth c.replicas 1) Replica.Corrupt_execution;
  let completed, wrong = drive c ~ops:20 in
  checki "completes" 20 completed;
  checki "wrong replies rejected by quorum" 0 wrong

let test_faulty_tee_breaks_safety () =
  let c = make () in
  Replica.set_byzantine (List.nth c.replicas 0) Replica.Faulty_tee_equivocate;
  let _completed, _ = drive ~until:1_500_000.0 c ~ops:10 in
  let honest = [ List.nth c.replicas 1; List.nth c.replicas 2 ] in
  checkb "single compromised USIG diverges the honest backups" false (agreement honest)

let suites =
  [ ( "minbft",
      [ Alcotest.test_case "usig certificates" `Quick test_usig_certificates;
        Alcotest.test_case "usig tamper" `Quick test_usig_tamper_enables_duplicates;
        Alcotest.test_case "usig window" `Quick test_usig_window;
        Alcotest.test_case "usig codec" `Quick test_usig_codec;
        Alcotest.test_case "mmsg codec" `Quick test_mmsg_codec;
        Alcotest.test_case "normal operation" `Quick test_normal_operation;
        Alcotest.test_case "batching" `Quick test_batching;
        Alcotest.test_case "queued retransmit proposed once" `Quick
          test_queued_retransmit_proposed_once;
        Alcotest.test_case "backup crash" `Quick test_backup_crash;
        Alcotest.test_case "byz execution masked" `Quick test_byz_execution_masked;
        Alcotest.test_case "faulty TEE breaks safety" `Quick test_faulty_tee_breaks_safety ] ) ]
