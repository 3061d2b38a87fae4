(* The queue holds bare closures; only cancellable timers pay for a guard
   record, so dispatching an event allocates nothing. *)
type timer = { mutable cancelled : bool }

type t = {
  mutable now : Timebase.t;
  queue : (unit -> unit) Heap.t;
  mutable seq : int;
  mutable stopping : bool;
}

let create () =
  { now = 0; queue = Heap.create (); seq = 0; stopping = false }

let now t = t.now
let pending t = Heap.length t.queue

let at t time f =
  if time < t.now then
    invalid_arg
      (Printf.sprintf "Engine.at: time %d is before now %d" time t.now);
  Heap.push t.queue ~key:time ~seq:t.seq f;
  t.seq <- t.seq + 1

let after t delay f = at t (t.now + delay) f

let timer_after t delay f =
  let tm = { cancelled = false } in
  after t delay (fun () -> if not tm.cancelled then f ());
  tm

let cancel tm = tm.cancelled <- true

let step t =
  let q = t.queue in
  if Heap.is_empty q then false
  else begin
    t.now <- Heap.min_key q;
    (Heap.pop_min q) ();
    true
  end

let run ?until t =
  t.stopping <- false;
  let horizon = match until with None -> max_int | Some u -> u in
  let q = t.queue in
  let rec loop () =
    if not t.stopping then begin
      let k = Heap.min_key q in
      if k > horizon || Heap.is_empty q then begin
        if horizon < max_int then t.now <- Int.max t.now horizon
      end
      else begin
        t.now <- k;
        (Heap.pop_min q) ();
        loop ()
      end
    end
  in
  loop ()

let stop t = t.stopping <- true
