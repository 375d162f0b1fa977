module W = Splitbft_codec.Writer
module R = Splitbft_codec.Reader

type mode = Async | Sync

let image ~counter body =
  W.to_string
    (fun w () ->
      W.u64 w counter;
      body w)
    ()

(* A replayed blob is always at least two seals behind under [Async] (or
   fails the missing-blob rule), so the one-slot tolerance never masks an
   attack; it costs at most one checkpoint interval of staleness, which
   state transfer repairs.  A sealed counter {e ahead} of the platform's
   means the counter itself was wiped. *)
let check mode ~who ~counter sealed =
  match sealed with
  | None ->
    (* A counter past the one seal [Async] may lose proves a seal reached
       disk; an absent blob means the host destroyed or withheld it. *)
    let slack = match mode with Async -> 1L | Sync -> 0L in
    if Int64.compare counter slack > 0 then
      Error
        (Printf.sprintf "%s: rollback detected — counter at %Ld but no sealed state offered"
           who counter)
    else Ok ()
  | Some s ->
    if Int64.equal s counter || (mode = Async && Int64.equal s (Int64.pred counter)) then Ok ()
    else
      Error
        (Printf.sprintf
           "%s: rollback detected — sealed state bound to counter %Ld, platform counter is %Ld"
           who s counter)

let recover mode ~who ~counter ~unseal ~decode blob =
  match blob with
  | None -> Result.map (fun () -> None) (check mode ~who ~counter None)
  | Some sealed -> (
    match unseal sealed with
    | Error e -> Error (Printf.sprintf "%s: sealed state rejected: %s" who e)
    | Ok plain -> (
      match
        R.parse
          (fun r ->
            let c = R.u64 r in
            (c, decode r))
          plain
      with
      | Error e -> Error (Printf.sprintf "%s: sealed state malformed: %s" who e)
      | Ok (c, body) -> Result.map (fun () -> Some body) (check mode ~who ~counter (Some c))))
