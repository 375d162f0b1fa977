module Ids = Splitbft_types.Ids
module Message = Splitbft_types.Message

type t = {
  queue : Message.request Queue.t;
  queued : (Ids.client_id * int64, unit) Hashtbl.t;  (* membership of [queue] *)
}

let create () = { queue = Queue.create (); queued = Hashtbl.create 64 }

let push t (r : Message.request) =
  let key = (r.client, r.timestamp) in
  (not (Hashtbl.mem t.queued key))
  && begin
    Hashtbl.replace t.queued key ();
    Queue.push r t.queue;
    true
  end

let take t ~max =
  let rec grab i acc =
    if i = 0 || Queue.is_empty t.queue then List.rev acc
    else begin
      let r = Queue.pop t.queue in
      Hashtbl.remove t.queued (r.Message.client, r.Message.timestamp);
      grab (i - 1) (r :: acc)
    end
  in
  grab max []

let length t = Queue.length t.queue
let iter t f = Queue.iter f t.queue

let clear t =
  Queue.clear t.queue;
  Hashtbl.reset t.queued

type decision = Flush | Arm | Idle

let next t ~batch_size =
  let n = Queue.length t.queue in
  if n = 0 then Idle else if n >= batch_size then Flush else Arm
