type 'h t = {
  f : int;
  compare : 'h -> 'h -> int;
  votes : ('h, string) Votes.t;
  mutable replies : (int * 'h * int) list;  (* replier, height, view *)
}

let create ~f ~compare = { f; compare; votes = Votes.create ~size:32 (); replies = [] }

let vouch t ~key ~replier ~digest =
  Votes.add t.votes ~key ~sender:replier digest
  && List.length (List.filter (String.equal digest) (Votes.get t.votes key)) >= t.f + 1

let reply t ~replier ~height ~view =
  t.replies <- (replier, height, view) :: List.filter (fun (r, _, _) -> r <> replier) t.replies

let vouched_height ~f ~compare hs =
  if List.length hs <= f then None
  else Some (List.nth (List.sort (fun a b -> compare b a) hs) f)

let target t =
  match
    ( vouched_height ~f:t.f ~compare:t.compare (List.map (fun (_, h, _) -> h) t.replies),
      vouched_height ~f:t.f ~compare:Int.compare (List.map (fun (_, _, v) -> v) t.replies) )
  with
  | Some h, Some v -> Some (h, v)
  | _ -> None

let forget t key = Votes.remove t.votes key

let reset t =
  Votes.reset t.votes;
  t.replies <- []
