(* The repository benchmark: one command, four seeded workloads.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   Untraced ([--trace 0]) runs repeat the workload until [S] seconds have
   gone.  Repetition [k] simulates sub-seed [k mod reps]; the first [reps]
   repetitions are pooled into the simulated-time metrics, every later one
   re-runs a sub-seed and must reproduce it byte for byte.  CPU-time
   metrics are medians over the repetitions after the first, scaled by the
   yardstick.  Traced ([--trace 1]) runs simulate sub-seed 0 plain, probed
   and under the tracer, and report per-layer metrics.

   Prints a human-readable report, then the result as one JSON line.
   Exits 1 on any wrong result, safety or confidentiality violation,
   determinism break or probed/plain mismatch. *)

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: FAILED: " ^ s); exit 1) fmt

(* ----- wall-clock spans around calls into the program ----- *)

module Spans = struct
  type span = { id : int; name : string; start : float; stop : float; parent : int }

  let all : span list ref = ref []
  let stack = ref []
  let next = ref 0

  let record name f =
    let id = !next in
    incr next;
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    stack := id :: !stack;
    let start = Unix.gettimeofday () in
    Fun.protect
      ~finally:(fun () ->
        stack := List.tl !stack;
        all := { id; name; start; stop = Unix.gettimeofday (); parent } :: !all)
      f

  (* Chrome trace-event JSON, in completion order; ids are start order. *)
  let write path =
    let oc = open_out path in
    let spans = List.rev !all in
    let t0 = List.fold_left (fun a s -> Float.min a s.start) infinity spans in
    output_string oc "{\"traceEvents\":[";
    List.iteri
      (fun i s ->
        Printf.fprintf oc
          "%s{\"name\":%S,\"ph\":\"X\",\"pid\":0,\"tid\":0,\"ts\":%.1f,\"dur\":%.1f,\
           \"args\":{\"id\":%d,\"parent\":%d}}"
          (if i = 0 then "" else ",")
          s.name ((s.start -. t0) *. 1e6) ((s.stop -. s.start) *. 1e6) s.id s.parent)
      spans;
    output_string oc "]}\n";
    close_out oc
end

let hooks = { Drive.no_hooks with Drive.span = Spans.record }

(* ----- statistics ----- *)

let median a = Layers.percentile a 50.0
let pct = Layers.percentile

let pooled f sims = Array.concat (List.map f sims)

(* Longest interval of the window [s, e) with no reply delivered. *)
let longest_gap (st : Drive.step_result) =
  let prev = ref st.s_start and gap = ref 0.0 in
  Array.iter
    (fun t ->
      gap := Float.max !gap (t -. !prev);
      prev := t)
    st.replies;
  Float.max !gap (st.s_end -. !prev)

(* ----- correctness ----- *)

let check (w : Drive.t) (s : Drive.sim) =
  if s.wrong > 0 then fail "%s: %d wrong results" w.name s.wrong;
  if s.safety <> "" then fail "%s: safety verdict: %s" w.name s.safety;
  if s.lateness_us > 1e-6 then fail "%s: generator ran %.9f us late" w.name s.lateness_us;
  let crash = match w.shape with Drive.Open { fault = Some _; _ } -> true | _ -> false in
  if crash && s.view_changes = 0 then fail "%s: primary crash caused no view change" w.name;
  if (not crash) && s.view_changes > 0 then
    fail "%s: %d unexpected view changes" w.name s.view_changes

let fingerprint (s : Drive.sim) = Digest.to_hex (Digest.string (Marshal.to_string s []))

(* ----- end-to-end metrics ----- *)

type e2e = {
  throughput_ops : float;
  knee_ops : float;  (* 0 when no step meets the limit; nan when not stepped *)
  p50 : float;
  p99 : float;
  samples : int;
  read_p99 : float;
  write_p99 : float;
  unavailable_ms : float;
  failed : int;
  attempted : int;
  per_step : (float * float * float * int * float) list;  (* rate, p50, p99, n, backlog growth *)
}

(* The knee is the highest offered step whose p99 stays under this limit
   while the backlog grows by at most 10% of the offered rate. *)
let knee_p99_limit_us = 20_000.0

let end_to_end (w : Drive.t) sims =
  let reps = float_of_int (List.length sims) in
  let step i f = List.map (fun (s : Drive.sim) -> f s.steps_r.(i)) sims in
  let window i =
    let st = (List.hd sims).steps_r.(i) in
    (st.s_end -. st.s_start) /. 1e6
  in
  let sum l = List.fold_left ( + ) 0 l in
  let steps = Drive.steps w in
  let per_step =
    List.mapi
      (fun i (st : Drive.step) ->
        let lat = pooled (fun s -> s.Drive.steps_r.(i).lat) sims in
        let growth =
          float_of_int (sum (step i (fun r -> r.backlog_end - r.backlog_start)))
          /. (reps *. window i)
        in
        (st.rate, median lat, pct lat 99.0, Array.length lat, growth))
      steps
  in
  let knee =
    match w.shape with
    | Drive.Open { steps = _ :: _ :: _; _ } ->
      List.fold_left
        (fun k (rate, _, p99, _, growth) ->
          if p99 <= knee_p99_limit_us && growth <= 0.1 *. rate then Float.max k rate else k)
        0.0 per_step
    | _ -> nan
  in
  let r = w.ref_step in
  let lat = pooled (fun s -> s.Drive.steps_r.(r).lat) sims in
  let rd = pooled (fun s -> s.Drive.steps_r.(r).lat_read) sims in
  let wr = pooled (fun s -> s.Drive.steps_r.(r).lat_write) sims in
  { throughput_ops =
      float_of_int (sum (step w.tput_step (fun r -> r.completed_in)))
      /. (reps *. window w.tput_step);
    knee_ops = knee;
    p50 = median lat;
    p99 = pct lat 99.0;
    samples = Array.length lat;
    read_p99 = (if Array.length rd = 0 then nan else pct rd 99.0);
    write_p99 = pct wr 99.0;
    unavailable_ms =
      median (Array.of_list (List.map (fun s -> longest_gap s.Drive.steps_r.(r)) sims)) /. 1000.0;
    failed = sum (List.map (fun (s : Drive.sim) -> s.refused + s.unfinished) sims);
    attempted = sum (List.map (fun (s : Drive.sim) -> s.attempted) sims);
    per_step }

(* ----- output ----- *)

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let emit ~attempted ~failed metrics =
  let body =
    String.concat ", "
      (List.map
         (fun (name, unit, v) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
             (json_number (if Float.is_finite v then v else 0.0))
             unit)
         metrics)
  in
  Printf.printf "{\"correct\": true, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    attempted failed body

let print_table title rows =
  Printf.printf "%s\n" title;
  List.iter
    (fun (name, unit, v) ->
      if Float.is_nan v then Printf.printf "  %-34s %14s %s\n" name "n/a" unit
      else Printf.printf "  %-34s %14.6g %s\n" name v unit)
    rows

(* ----- modes ----- *)

(* Before each repetition (but the first, which warms the heap up), this
   many set-ups are measured alone, each on a freshly collected heap: one
   set-up's CPU time varies by some 20% on a shared host, so [setup_s] is
   the median of many.  The yardstick is timed as often beside them. *)
let extra_setups = 4

let untraced (w : Drive.t) ~seed ~seconds =
  let start = Unix.gettimeofday () in
  let first = Array.make w.reps None in
  let rates = ref [] and setups = ref [] and heaps = ref [] and yard = ref [] in
  let k = ref 0 in
  let continue () =
    let elapsed = Unix.gettimeofday () -. start in
    let per_rep = elapsed /. float_of_int (max 1 !k) in
    !k < w.reps + 1 || elapsed +. per_rep <= seconds
  in
  while continue () do
    let sub = !k mod w.reps in
    if !k > 0 then
      for _ = 1 to extra_setups do
        yard := Yardstick.seconds () :: !yard;
        setups :=
          Spans.record "setup" (fun () -> Drive.setup_only w ~seed:(Drive.sub_seed ~seed sub))
          :: !setups;
        Gc.compact ()
      done;
    let r =
      Spans.record (Printf.sprintf "repetition %d" !k) (fun () ->
          Drive.repetition ~hooks w ~seed:(Drive.sub_seed ~seed sub))
    in
    check w r.sim;
    (match first.(sub) with
    | None -> first.(sub) <- Some (fingerprint r.sim, r.sim)
    | Some (fp, _) ->
      if not (String.equal fp (fingerprint r.sim)) then
        fail "%s: sub-seed %d did not reproduce its simulated metrics" w.name sub);
    (* The first repetition warms the heap up; it counts only for the
       simulated metrics. *)
    if !k > 0 then begin
      rates := (float_of_int r.sim.committed_total /. r.cost.sim_cpu_s) :: !rates;
      setups := r.cost.setup_cpu_s :: !setups;
      heaps := float_of_int r.cost.heap_peak_words :: !heaps
    end;
    incr k;
    Gc.compact ()
  done;
  let sims = Array.to_list (Array.map (fun o -> snd (Option.get o)) first) in
  let e = end_to_end w sims in
  let raw_ops = median (Array.of_list !rates) and raw_setup = median (Array.of_list !setups) in
  let yard_s = median (Array.of_list !yard) in
  let scale = yard_s /. Yardstick.reference_s in
  let sim_ops = raw_ops *. scale and setup = raw_setup /. scale in
  let heap_mb = median (Array.of_list !heaps) *. float_of_int (Sys.word_size / 8) /. 1048576.0 in
  List.iter
    (fun (rate, p50, p99, n, growth) ->
      if rate > 0.0 then
        Printf.printf
          "step %8.0f ops/s: p50 %10.1f us  p99 %10.1f us  (n=%d)  backlog growth %8.1f ops/s\n"
          rate p50 p99 n growth)
    e.per_step;
  let gated =
    [ ("throughput_ops", "ops/s", e.throughput_ops);
      ("latency_p50_us", "us", e.p50);
      ("latency_p99_us", "us", e.p99);
      ("write_latency_p99_us", "us", e.write_p99);
      ("unavailable_ms", "ms", e.unavailable_ms);
      ("sim_ops_per_s", "ops/s", sim_ops);
      ("setup_s", "s", setup);
      ("heap_peak_mb", "MB", heap_mb) ]
  in
  print_table
    (Printf.sprintf "%s seed %d: %d repetitions (%d pooled sub-seeds), %d latency samples" w.name
       seed !k w.reps e.samples)
    (gated
    @ [ ("sim_ops_per_s_raw", "ops/s", raw_ops);
        ("setup_s_raw", "s", raw_setup);
        ("yardstick_s", "s", yard_s);
        ("knee_ops", "ops/s", e.knee_ops);
        ("read_latency_p99_us", "us", e.read_p99);
        ("failed_frac", "frac", float_of_int e.failed /. float_of_int (max 1 e.attempted)) ]);
  (e, gated)

(* Three repetitions of sub-seed 0: plain; probed by the benchmark's own
   instrumentation (wire taps, registry snapshots at the window bounds,
   per-slice gauges), which must not move a single simulated number; and
   under the program's [Obs.Tracer] with every request sampled.  The tracer
   is not inert in simulated time: trace contexts ride enclave inputs and
   are charged copy and serialization cost, so its latency shift is
   reported rather than asserted away. *)
let traced (w : Drive.t) ~seed =
  let sub = Drive.sub_seed ~seed 0 in
  let run name ?tracer hooks =
    let r = Spans.record name (fun () -> Drive.repetition ?tracer ~hooks w ~seed:sub) in
    check w r.Drive.sim;
    Gc.compact ();
    r
  in
  let plain = run "untraced" hooks in
  let probe = Layers.probe () in
  let probed = run "probed" (Layers.hooks probe ~base:hooks) in
  if not (String.equal (fingerprint plain.sim) (fingerprint probed.sim)) then
    fail "%s: probed simulated metrics differ from the untraced run" w.name;
  let tracer = Layers.Tracer.create ~sample_every:1 () in
  let with_tracer = run "tracer" ~tracer hooks in
  let p50 r = (end_to_end w [ r.Drive.sim ]).p50 in
  let frac a b = (a /. b) -. 1.0 in
  let metrics =
    Spans.record "layer replays" (fun () ->
        Layers.metrics w probe ~probed ~plain
          ~queue_us_per_op:(Layers.ecall_queue_us_per_op w tracer with_tracer)
          ~probe_overhead:(frac probed.cost.sim_cpu_s plain.cost.sim_cpu_s)
          ~trace_overhead:(frac with_tracer.cost.sim_cpu_s plain.cost.sim_cpu_s)
          ~trace_shift:(frac (p50 with_tracer) (p50 plain)))
  in
  print_table (Printf.sprintf "%s seed %d: per-layer (traced runs)" w.name seed) metrics;
  (end_to_end w [ plain.sim ], metrics)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 20.0 and trace = ref 0 in
  let out = ref "perfbench/out" in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measuring time of an untraced run");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run");
      ("--out", Arg.Set_string out, "DIR where wall-clock spans are written") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  let w =
    match Drive.find !workload with
    | Some w -> w
    | None ->
      fail "unknown workload %S (one of: %s)" !workload
        (String.concat ", " (List.map (fun w -> w.Drive.name) Drive.all))
  in
  let e, metrics =
    match !trace with
    | 0 -> untraced w ~seed:!seed ~seconds:!seconds
    | 1 -> traced w ~seed:!seed
    | t -> fail "--trace %d: expected 0 or 1" t
  in
  (try
     if not (Sys.file_exists !out) then Sys.mkdir !out 0o755;
     let file = Printf.sprintf "spans-%s-seed%d-trace%d.json" w.name !seed !trace in
     Spans.write (Filename.concat !out file)
   with Sys_error msg -> prerr_endline ("perfbench: spans not written: " ^ msg));
  emit ~attempted:e.attempted ~failed:e.failed metrics
