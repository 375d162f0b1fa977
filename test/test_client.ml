module Engine = Splitbft_sim.Engine
module Network = Splitbft_sim.Network
module Client = Splitbft_client.Client
module Message = Splitbft_types.Message
module Addr = Splitbft_types.Addr
module Keys = Splitbft_types.Keys
module Hmac = Splitbft_crypto.Hmac
module Kvs = Splitbft_app.Kvs

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* A scripted fake replica: answers requests according to [reply_fn]. *)
let fake_replica net ~id ~reply_fn =
  Network.register net (Addr.replica id) (fun ~src payload ->
      match Message.decode payload with
      | Ok (Message.Request r) -> (
        match reply_fn ~replica:id ~request:r with
        | Some result ->
          let rp =
            { Message.view = 0;
              timestamp = r.Message.timestamp;
              client = r.Message.client;
              sender = id;
              result;
              r_auth = "" }
          in
          let key =
            Keys.client_replica_key ~protocol:"pbft" ~client:r.Message.client ~replica:id
          in
          let rp = { rp with Message.r_auth = Hmac.mac ~key (Message.reply_auth_bytes rp) } in
          Network.send net ~src:(Addr.replica id) ~dst:src
            (Message.encode (Message.Reply rp))
        | None -> ())
      | Ok _ | Error _ -> ())

let setup ~reply_fn =
  let engine = Engine.create ~seed:77L () in
  let net = Network.create engine Network.default_config in
  for id = 0 to 3 do
    fake_replica net ~id ~reply_fn
  done;
  let client =
    Client.create engine net
      { (Client.default_config Client.Pbft ~n:4 ~id:0) with
        Client.retry_timeout_us = 100_000.0;
        (* exact retry timing matters in these tests *)
        retry_jitter = 0.0 }
  in
  (engine, net, client)

let test_completes_on_quorum () =
  let engine, _, client = setup ~reply_fn:(fun ~replica:_ ~request:_ -> Some "R") in
  let results = ref [] in
  Client.start client ~on_ready:(fun () ->
      Client.submit client ~op:"x" ~on_result:(fun ~latency_us:_ ~result ->
          results := result :: !results));
  Engine.run ~until:1_000_000.0 engine;
  Alcotest.(check (list string)) "one completion" [ "R" ] !results;
  checki "completed counter" 1 (Client.completed client);
  checki "nothing outstanding" 0 (Client.outstanding client)

let test_needs_matching_majority () =
  (* Replicas disagree 2 vs 2: with f+1 = 2 the first matching pair wins;
     make three agree to be deterministic and one disagree. *)
  let reply_fn ~replica ~request:_ = Some (if replica = 0 then "WRONG" else "GOOD") in
  let engine, _, client = setup ~reply_fn in
  let got = ref "" in
  Client.start client ~on_ready:(fun () ->
      Client.submit client ~op:"x" ~on_result:(fun ~latency_us:_ ~result -> got := result));
  Engine.run ~until:1_000_000.0 engine;
  Alcotest.(check string) "majority result accepted" "GOOD" !got

let test_single_vote_insufficient () =
  (* Only one replica answers: no quorum, no completion. *)
  let reply_fn ~replica ~request:_ = if replica = 2 then Some "R" else None in
  let engine, _, client = setup ~reply_fn in
  let done_ = ref 0 in
  Client.start client ~on_ready:(fun () ->
      Client.submit client ~op:"x" ~on_result:(fun ~latency_us:_ ~result:_ -> incr done_));
  Engine.run ~until:1_000_000.0 engine;
  checki "never completes on one vote" 0 !done_;
  checki "still outstanding" 1 (Client.outstanding client)

let test_bad_auth_rejected () =
  (* Replies carry an invalid HMAC: the client must ignore them. *)
  let engine = Engine.create ~seed:78L () in
  let net = Network.create engine Network.default_config in
  for id = 0 to 3 do
    Network.register net (Addr.replica id) (fun ~src payload ->
        match Message.decode payload with
        | Ok (Message.Request r) ->
          let rp =
            { Message.view = 0;
              timestamp = r.Message.timestamp;
              client = r.Message.client;
              sender = id;
              result = "FORGED";
              r_auth = String.make 32 'x' }
          in
          Network.send net ~src:(Addr.replica id) ~dst:src
            (Message.encode (Message.Reply rp))
        | Ok _ | Error _ -> ())
  done;
  let client = Client.create engine net (Client.default_config Client.Pbft ~n:4 ~id:0) in
  let done_ = ref 0 in
  Client.start client ~on_ready:(fun () ->
      Client.submit client ~op:"x" ~on_result:(fun ~latency_us:_ ~result:_ -> incr done_));
  Engine.run ~until:500_000.0 engine;
  checki "forged replies rejected" 0 !done_

let test_duplicate_votes_ignored () =
  (* Each replica answers twice; only distinct senders may count. *)
  let engine = Engine.create ~seed:79L () in
  let net = Network.create engine Network.default_config in
  (* Only replica 0 exists, but it answers four times. *)
  Network.register net (Addr.replica 0) (fun ~src payload ->
      match Message.decode payload with
      | Ok (Message.Request r) ->
        for _ = 1 to 4 do
          let rp =
            { Message.view = 0;
              timestamp = r.Message.timestamp;
              client = r.Message.client;
              sender = 0;
              result = "R";
              r_auth = "" }
          in
          let key = Keys.client_replica_key ~protocol:"pbft" ~client:r.Message.client ~replica:0 in
          let rp = { rp with Message.r_auth = Hmac.mac ~key (Message.reply_auth_bytes rp) } in
          Network.send net ~src:(Addr.replica 0) ~dst:src (Message.encode (Message.Reply rp))
        done
      | Ok _ | Error _ -> ())
  ;
  let client = Client.create engine net (Client.default_config Client.Pbft ~n:4 ~id:0) in
  let done_ = ref 0 in
  Client.start client ~on_ready:(fun () ->
      Client.submit client ~op:"x" ~on_result:(fun ~latency_us:_ ~result:_ -> incr done_));
  Engine.run ~until:500_000.0 engine;
  checki "same sender cannot vote twice" 0 !done_

let test_retransmission () =
  (* Replicas only answer from the second attempt on. *)
  let attempts = Hashtbl.create 8 in
  let reply_fn ~replica ~request:(r : Message.request) =
    let key = (replica, r.Message.timestamp) in
    let n = 1 + Option.value ~default:0 (Hashtbl.find_opt attempts key) in
    Hashtbl.replace attempts key n;
    if n >= 2 then Some "R" else None
  in
  let engine, _, client = setup ~reply_fn in
  let done_at = ref nan in
  Client.start client ~on_ready:(fun () ->
      Client.submit client ~op:"x" ~on_result:(fun ~latency_us ~result:_ ->
          done_at := latency_us));
  Engine.run ~until:2_000_000.0 engine;
  checkb "completed after retry" true (not (Float.is_nan !done_at));
  checkb "latency includes the retry timeout" true (!done_at >= 100_000.0)

let test_backoff_grows_and_caps () =
  (* Nobody ever answers; the resend schedule must back off geometrically
     from the initial timeout up to the cap, then hold there. *)
  let engine = Engine.create ~seed:81L () in
  let net = Network.create engine Network.default_config in
  let arrivals = ref [] in
  Network.register net (Addr.replica 0) (fun ~src:_ payload ->
      match Message.decode payload with
      | Ok (Message.Request _) -> arrivals := Engine.now engine :: !arrivals
      | Ok _ | Error _ -> ());
  let client =
    Client.create engine net
      { (Client.default_config Client.Pbft ~n:4 ~id:0) with
        Client.retry_timeout_us = 50_000.0;
        retry_backoff = 2.0;
        retry_cap_us = 200_000.0;
        retry_jitter = 0.0 }
  in
  Client.start client ~on_ready:(fun () ->
      Client.submit client ~op:"x" ~on_result:(fun ~latency_us:_ ~result:_ -> ()));
  Engine.run ~until:1_200_000.0 engine;
  let ts = List.rev !arrivals in
  let rec gaps = function a :: (b :: _ as rest) -> (b -. a) :: gaps rest | _ -> [] in
  let g = Array.of_list (gaps ts) in
  checkb "enough resends observed" true (Array.length g >= 5);
  let near want got = Float.abs (got -. want) < 5_000.0 in
  checkb "first gap = initial timeout" true (near 50_000.0 g.(0));
  checkb "second gap doubled" true (near 100_000.0 g.(1));
  checkb "third gap doubled again" true (near 200_000.0 g.(2));
  checkb "fourth gap held at cap" true (near 200_000.0 g.(3));
  checkb "fifth gap held at cap" true (near 200_000.0 g.(4))

let test_backoff_jitter_deterministic_and_bounded () =
  (* With jitter on, each armed delay moves by at most ±the jitter
     fraction, and the same seed reproduces the same schedule. *)
  let run () =
    let engine = Engine.create ~seed:82L () in
    let net = Network.create engine Network.default_config in
    let arrivals = ref [] in
    Network.register net (Addr.replica 0) (fun ~src:_ payload ->
        match Message.decode payload with
        | Ok (Message.Request _) -> arrivals := Engine.now engine :: !arrivals
        | Ok _ | Error _ -> ());
    let client =
      Client.create engine net
        { (Client.default_config Client.Pbft ~n:4 ~id:0) with
          Client.retry_timeout_us = 50_000.0;
          retry_backoff = 2.0;
          retry_cap_us = 200_000.0;
          retry_jitter = 0.1 }
    in
    Client.start client ~on_ready:(fun () ->
        Client.submit client ~op:"x" ~on_result:(fun ~latency_us:_ ~result:_ -> ()));
    Engine.run ~until:800_000.0 engine;
    List.rev !arrivals
  in
  let a = run () and b = run () in
  Alcotest.(check (list (float 1e-6))) "same seed, same schedule" a b;
  let rec gaps = function x :: (y :: _ as rest) -> (y -. x) :: gaps rest | _ -> [] in
  let nominal = [ 50_000.0; 100_000.0; 200_000.0; 200_000.0 ] in
  List.iteri
    (fun i g ->
      if i < List.length nominal then begin
        let base = List.nth nominal i in
        (* ±10% jitter plus a little network slack *)
        checkb
          (Printf.sprintf "gap %d within jitter bound" i)
          true
          (g >= (base *. 0.9) -. 2_000.0 && g <= (base *. 1.1) +. 2_000.0)
      end)
    (gaps a)

let test_window_respected () =
  let inflight_max = ref 0 in
  let engine = Engine.create ~seed:80L () in
  let net = Network.create engine Network.default_config in
  let pending : (int * Message.request) Queue.t = Queue.create () in
  for id = 0 to 3 do
    Network.register net (Addr.replica id) (fun ~src:_ payload ->
        match Message.decode payload with
        | Ok (Message.Request r) -> Queue.push (id, r) pending
        | Ok _ | Error _ -> ())
  done;
  let client =
    Client.create engine net
      { (Client.default_config Client.Pbft ~n:4 ~id:0) with Client.window = 3 }
  in
  Client.start client ~on_ready:(fun () ->
      for i = 1 to 10 do
        Client.submit client ~op:(string_of_int i) ~on_result:(fun ~latency_us:_ ~result:_ -> ())
      done);
  (* Drain replies step by step, watching the outstanding count. *)
  let rec pump () =
    inflight_max := max !inflight_max (Client.outstanding client);
    if Queue.is_empty pending then ()
    else begin
      let id, r = Queue.pop pending in
      let rp =
        { Message.view = 0;
          timestamp = r.Message.timestamp;
          client = r.Message.client;
          sender = id;
          result = "R";
          r_auth = "" }
      in
      let key = Keys.client_replica_key ~protocol:"pbft" ~client:r.Message.client ~replica:id in
      let rp = { rp with Message.r_auth = Hmac.mac ~key (Message.reply_auth_bytes rp) } in
      Network.send net ~src:(Addr.replica id) ~dst:(Addr.client 0)
        (Message.encode (Message.Reply rp));
      ignore (Engine.schedule engine ~delay:100.0 ~label:"pump" pump)
    end
  in
  ignore (Engine.schedule engine ~delay:1_000.0 ~label:"pump" pump);
  Engine.run ~until:2_000_000.0 engine;
  checkb "outstanding never exceeds the window" true (!inflight_max <= 3);
  checki "all eventually complete" 10 (Client.completed client)

let test_backlog_dispatches_in_order () =
  (* A burst far deeper than the window waits in the client's backlog and
     must leave it first-in, first-out. *)
  let sent = ref [] in
  let engine, _, client =
    setup ~reply_fn:(fun ~replica ~request ->
        if replica = 0 then sent := request.Message.payload :: !sent;
        Some "R")
  in
  let ops = List.init 50 string_of_int in
  let done_ = ref [] in
  Client.start client ~on_ready:(fun () ->
      List.iter
        (fun op ->
          Client.submit client ~op ~on_result:(fun ~latency_us:_ ~result:_ ->
              done_ := op :: !done_))
        ops);
  Engine.run ~until:10_000_000.0 engine;
  Alcotest.(check (list string)) "dispatched in submission order" ops (List.rev !sent);
  Alcotest.(check (list string)) "completed in submission order" ops (List.rev !done_)

let test_splitbft_handshake_requires_genuine_quotes () =
  (* A network of fake replicas that merely echo Session_init with junk
     quotes: the client must never become ready. *)
  let engine = Engine.create ~seed:81L () in
  let net = Network.create engine Network.default_config in
  for id = 0 to 3 do
    Network.register net (Addr.replica id) (fun ~src payload ->
        match Message.decode payload with
        | Ok (Message.Session_init _) ->
          let sq =
            { Message.sq_replica = id;
              sq_quote = "not-a-quote";
              sq_box_public = String.make 32 'b';
              sq_nonce = String.make 16 'n';
              sq_sig = String.make 32 's' }
          in
          Network.send net ~src:(Addr.replica id) ~dst:src
            (Message.encode (Message.Session_quote sq))
        | Ok _ | Error _ -> ())
  done;
  let client =
    Client.create engine net
      (Client.default_config (Client.Splitbft { ready_quorum = 1 }) ~n:4 ~id:0)
  in
  let ready = ref false in
  Client.start client ~on_ready:(fun () -> ready := true);
  Engine.run ~until:1_000_000.0 engine;
  checkb "never ready against fake enclaves" false !ready

let suites =
  [ ( "client",
      [ Alcotest.test_case "completes on quorum" `Quick test_completes_on_quorum;
        Alcotest.test_case "matching majority" `Quick test_needs_matching_majority;
        Alcotest.test_case "one vote insufficient" `Quick test_single_vote_insufficient;
        Alcotest.test_case "bad auth rejected" `Quick test_bad_auth_rejected;
        Alcotest.test_case "duplicate votes ignored" `Quick test_duplicate_votes_ignored;
        Alcotest.test_case "retransmission" `Quick test_retransmission;
        Alcotest.test_case "backoff grows and caps" `Quick test_backoff_grows_and_caps;
        Alcotest.test_case "backoff jitter bounded" `Quick
          test_backoff_jitter_deterministic_and_bounded;
        Alcotest.test_case "window respected" `Quick test_window_respected;
        Alcotest.test_case "backlog dispatches in order" `Quick test_backlog_dispatches_in_order;
        Alcotest.test_case "fake quotes rejected" `Quick test_splitbft_handshake_requires_genuine_quotes ] ) ]
