(* A frozen CPU yardstick for the CPU-time metrics.

   On a shared host the simulator's speed drifts by 20% and more from one
   run to the next, for minutes at a time: it allocates about 250 KB per
   committed op and works on a heap of tens of megabytes, so it slows
   whenever neighbours load the memory system.  This fixed unit of work —
   short-lived allocation, string-keyed hash tables, buffer encoding and
   integer hashing over bytes — slows with it (correlation about 0.7 over
   runs), so [sim_ops_per_s] and [setup_s] are quoted at the host speed
   where one unit takes [reference_s], which halves their run-to-run
   spread.  It lives here, not in the program, so no change to the
   program moves it. *)

let mix h x = (h lxor x) * 0x100000001b3 land max_int

let unit_of_work () =
  let h = ref 0 in
  let tbl = Hashtbl.create 1024 in
  let keep = ref [] in
  for i = 1 to 20_000 do
    let buf = Buffer.create 64 in
    Buffer.add_string buf "key-";
    Buffer.add_string buf (string_of_int (i land 4095));
    Buffer.add_char buf ':';
    Buffer.add_string buf (string_of_int i);
    let s = Buffer.contents buf in
    String.iter (fun c -> h := mix !h (Char.code c)) s;
    Hashtbl.replace tbl (String.sub s 0 (String.index s ':')) (s, !h);
    (match Hashtbl.find_opt tbl ("key-" ^ string_of_int (!h land 4095)) with
    | Some (v, _) -> h := mix !h (String.length v)
    | None -> ());
    let l = List.init 8 (fun j -> (i + j, float_of_int j)) in
    if i land 63 = 0 then keep := l :: (if List.length !keep > 512 then [] else !keep);
    let b = Bytes.make 256 (Char.chr (i land 255)) in
    for j = 0 to Bytes.length b - 1 do
      h := mix !h (Char.code (Bytes.unsafe_get b j))
    done
  done;
  !h + Hashtbl.length tbl + List.length !keep

let sink = ref 0

(* CPU seconds of one unit of work. *)
let seconds () =
  let t0 = Sys.time () in
  sink := !sink + unit_of_work ();
  Sys.time () -. t0

(* One unit's CPU time on the host the figures in README.md were taken
   on (a 2-vCPU x86-64 VM). *)
let reference_s = 0.035
