module W = Splitbft_codec.Writer
module R = Splitbft_codec.Reader

type segment = {
  sg_first : int;
  sg_last : int;
  sg_chain : string;  (* chain hash after sg_last *)
  sg_counter : int64;
}

type t = {
  segment_entries : int;
  mutable chain : string;
  mutable last_seq : int;
  mutable floor : int;  (* entries <= floor have been compacted away *)
  mutable floor_chain : string;
  mutable stable : int;  (* certified checkpoint backing the floor *)
  mutable state_digest : string;  (* certified state digest at [stable] *)
  mutable sealed : segment list;  (* newest first *)
  mutable open_first : int;  (* 0 = open segment empty *)
  mutable open_count : int;
}

let entry_tag = "ledger:entry"
let base_tag = "ledger:base"
let cut_tag = "ledger:cut"
let seal_tag_prefix = "ledger:seal:"
let seal_tag last = Printf.sprintf "%s%d" seal_tag_prefix last
let is_ledger_tag tag = String.length tag >= 7 && String.sub tag 0 7 = "ledger:"

let seal_tag_seq tag =
  let p = String.length seal_tag_prefix in
  if String.length tag > p && String.sub tag 0 p = seal_tag_prefix then
    int_of_string_opt (String.sub tag p (String.length tag - p))
  else None

let create ~segment_entries =
  if segment_entries <= 0 then invalid_arg "Ledger.create: segment_entries must be positive";
  { segment_entries;
    chain = "";
    last_seq = 0;
    floor = 0;
    floor_chain = "";
    stable = 0;
    state_digest = "";
    sealed = [];
    open_first = 0;
    open_count = 0 }

let last_seq t = t.last_seq
let floor t = t.floor
let chain t = t.chain
let sealed_segments t = List.rev t.sealed
let segment_entries t = t.segment_entries

(* ----- sealed artifacts (segment header, compaction base) ----- *)

type header = { h_counter : int64; h_first : int; h_last : int; h_chain : string }

let encode_header h =
  W.to_string
    (fun w () ->
      W.u64 w h.h_counter;
      W.varint w h.h_first;
      W.varint w h.h_last;
      W.bytes w h.h_chain)
    ()

let decode_header s =
  R.parse
    (fun r ->
      let h_counter = R.u64 r in
      let h_first = R.varint r in
      let h_last = R.varint r in
      let h_chain = R.bytes r in
      { h_counter; h_first; h_last; h_chain })
    s

type base = {
  b_counter : int64;
  b_floor : int;
  b_chain : string;  (* chain hash after b_floor *)
  b_stable : int;
  b_state_digest : string;
}

let encode_base b =
  W.to_string
    (fun w () ->
      W.u64 w b.b_counter;
      W.varint w b.b_floor;
      W.bytes w b.b_chain;
      W.varint w b.b_stable;
      W.bytes w b.b_state_digest)
    ()

let decode_base s =
  R.parse
    (fun r ->
      let b_counter = R.u64 r in
      let b_floor = R.varint r in
      let b_chain = R.bytes r in
      let b_stable = R.varint r in
      let b_state_digest = R.bytes r in
      { b_counter; b_floor; b_chain; b_stable; b_state_digest })
    s

(* ----- append ----- *)

let append t ~seal ~counter ~seq ~digest ~ops =
  if seq <= t.last_seq then []
  else begin
    let e = { Entry.seq; digest; ops } in
    let chain = Entry.next_chain ~prev:t.chain e in
    t.chain <- chain;
    t.last_seq <- seq;
    if t.open_first = 0 then t.open_first <- seq;
    t.open_count <- t.open_count + 1;
    let recs = [ (entry_tag, Entry.encode_record ~chain e) ] in
    if t.open_count >= t.segment_entries then begin
      (* Rotation: bind the finished segment to a fresh counter value
         before anything newer is appended, so a host serving back an
         older ledger is at least two counter slots behind and recovery
         refuses it (one slot of tolerance covers the genuine crash
         window between the in-enclave bump and the persisted header). *)
      let c = counter () in
      let sg = { sg_first = t.open_first; sg_last = seq; sg_chain = chain; sg_counter = c } in
      t.sealed <- sg :: t.sealed;
      t.open_first <- 0;
      t.open_count <- 0;
      let header =
        encode_header { h_counter = c; h_first = sg.sg_first; h_last = seq; h_chain = chain }
      in
      recs @ [ (seal_tag seq, seal header) ]
    end
    else recs
  end

(* ----- compaction ----- *)

let compact t ~stable ~state_digest ~seal ~counter =
  let drop, keep = List.partition (fun sg -> sg.sg_last <= stable) t.sealed in
  match List.sort (fun a b -> Int.compare b.sg_last a.sg_last) drop with
  | [] -> []
  | newest :: _ ->
    t.sealed <- keep;
    t.floor <- newest.sg_last;
    t.floor_chain <- newest.sg_chain;
    t.stable <- stable;
    t.state_digest <- state_digest;
    let c = counter () in
    let b =
      { b_counter = c;
        b_floor = newest.sg_last;
        b_chain = newest.sg_chain;
        b_stable = stable;
        b_state_digest = state_digest }
    in
    [ (base_tag, seal (encode_base b)); (cut_tag, string_of_int newest.sg_last) ]

(* ----- recovery ----- *)

type recovered = {
  ledger : t;
  entries : Entry.t list;  (* surviving entries above the floor, oldest first *)
  rec_stable : int;
  rec_state_digest : string;
  torn_tail : bool;  (* the final record was torn and truncated *)
}

let has_prefix ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let recover ~segment_entries ~counter ~unseal records =
  if segment_entries <= 0 then invalid_arg "Ledger.recover: segment_entries must be positive";
  let t = create ~segment_entries in
  let entries_rev = ref [] in
  let newest_counter = ref 0L in
  let torn = ref false in
  let error = ref None in
  let refuse reason = error := Some reason in
  let n = List.length records in
  (* Pass 1: anchor on the newest valid base.  The record stream is not
     base-first in general — entries appended before a compaction sit
     earlier on the medium than the base that covers part of them, and
     after host-side GC the surviving pre-base entries still do.  The
     base is authoritative for everything at or below its floor (it was
     only written once a 2f+1-certified checkpoint covered it), so the
     replay pass below starts from its anchor and skips the stale
     survivors instead of chaining from genesis. *)
  List.iteri
    (fun i (tag, data) ->
      if !error = None && String.equal tag base_tag then
        match unseal data with
        | Error e ->
          (* A base that does not unseal is a torn write if it is the
             final record on the medium (the crash window between the
             in-enclave seal and the host's fsync); anywhere earlier it
             is tampering. *)
          if i <> n - 1 then refuse ("ledger: base record rejected: " ^ e)
        | Ok blob -> (
          match decode_base blob with
          | Error e ->
            if i <> n - 1 then refuse ("ledger: base record malformed: " ^ e)
          | Ok b ->
            if b.b_floor < t.floor then
              refuse "ledger: compaction bases regress — history tampered"
            else begin
              t.floor <- b.b_floor;
              t.floor_chain <- b.b_chain;
              t.chain <- b.b_chain;
              t.last_seq <- b.b_floor;
              t.stable <- b.b_stable;
              t.state_digest <- b.b_state_digest;
              if b.b_counter > !newest_counter then newest_counter := b.b_counter
            end))
    records;
  (* Pass 2: replay entries and segment headers above the floor. *)
  List.iteri
    (fun i (tag, data) ->
      let final = i = n - 1 in
      if !error = None && not !torn then begin
        if String.equal tag base_tag then begin
          (* Consumed by pass 1; a torn final base truncates. *)
          if
            final
            &&
            match unseal data with
            | Error _ -> true
            | Ok blob -> Result.is_error (decode_base blob)
          then torn := true
        end
        else if String.equal tag cut_tag then ()  (* host-side GC marker *)
        else if String.equal tag entry_tag then begin
          match Entry.decode_record data with
          | Error _ ->
            (* A record that does not parse is a torn write if it is the
               final one on the medium — truncate it.  Anywhere earlier it
               is corruption of history and the ledger is refused. *)
            if final then torn := true
            else refuse "ledger: corrupt entry record before the tail — history tampered"
          | Ok (e, rec_chain) ->
            if e.seq <= t.floor then ()
              (* pre-compaction survivor, certified-covered by the base *)
            else if e.seq <= t.last_seq then
              if final then torn := true
              else refuse "ledger: non-monotonic entry sequence — history tampered"
            else begin
              let expect = Entry.next_chain ~prev:t.chain e in
              if not (String.equal expect rec_chain) then
                if final then torn := true
                else refuse "ledger: hash chain mismatch — history tampered"
              else begin
                entries_rev := e :: !entries_rev;
                t.chain <- rec_chain;
                t.last_seq <- e.seq;
                if t.open_first = 0 then t.open_first <- e.seq;
                t.open_count <- t.open_count + 1
              end
            end
        end
        else if has_prefix ~prefix:seal_tag_prefix tag then begin
          match unseal data with
          | Error e ->
            if final then torn := true
            else refuse ("ledger: sealed segment header rejected: " ^ e)
          | Ok blob -> (
            match decode_header blob with
            | Error e ->
              if final then torn := true
              else refuse ("ledger: sealed segment header malformed: " ^ e)
            | Ok h ->
              if h.h_last <= t.floor then begin
                (* Header of a compacted-away segment: stale but honest;
                   its counter still bounds how fresh the medium is. *)
                if h.h_counter > !newest_counter then newest_counter := h.h_counter
              end
              else if h.h_last <> t.last_seq || not (String.equal h.h_chain t.chain) then
                refuse
                  "ledger: sealed segment header does not cover the replayed entries — \
                   rollback or truncation detected"
              else begin
                t.sealed <-
                  { sg_first = h.h_first;
                    sg_last = h.h_last;
                    sg_chain = h.h_chain;
                    sg_counter = h.h_counter }
                  :: t.sealed;
                t.open_first <- 0;
                t.open_count <- 0;
                if h.h_counter > !newest_counter then newest_counter := h.h_counter
              end)
        end
        (* unknown ledger:* tags are ignored: forward compatibility *)
      end)
    records;
  match !error with
  | Some reason -> Error reason
  | None ->
    (* Counter binding: the enclave bumps inside the seal but the artifact
       reaches disk through the untrusted host, the [Async] case.  Sealed
       counters start at 1, so 0 means nothing sealed survived. *)
    let x = !newest_counter in
    Result.map
      (fun () ->
        { ledger = t;
          entries = List.rev !entries_rev;
          rec_stable = t.stable;
          rec_state_digest = t.state_digest;
          torn_tail = !torn })
      (Splitbft_tee.Rollback.check Async ~who:"ledger" ~counter
         (if Int64.equal x 0L then None else Some x))
