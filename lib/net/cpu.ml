open Hovercraft_sim

type t = {
  engine : Engine.t;
  mutable free_at : Timebase.t;
  mutable busy : Timebase.t;
  mutable halted : bool;
  mutable gen : int;
      (* Bumped on every halt: closures queued before a crash capture the
         generation they were submitted under and never run after it, even
         if the CPU is later resumed. *)
}

let create engine = { engine; free_at = 0; busy = 0; halted = false; gen = 0 }

let exec t ~cost k =
  if cost < 0 then invalid_arg "Cpu.exec: negative cost";
  if not t.halted then begin
    let now = Engine.now t.engine in
    let start = Int.max now t.free_at in
    t.free_at <- start + cost;
    t.busy <- t.busy + cost;
    let gen = t.gen in
    Engine.at t.engine t.free_at (fun () -> if t.gen = gen then k ())
  end

let backlog t =
  let now = Engine.now t.engine in
  Int.max 0 (t.free_at - now)

let horizon t = Int.max (Engine.now t.engine) t.free_at

let advance_to t at =
  (* Idle wait: push the next-free instant forward without charging busy
     time. Barriers in a multi-thread scheduler use this to make every
     sibling CPU wait for a global operation — stall, not work. *)
  if not t.halted then if at > t.free_at then t.free_at <- at

let busy_time t = t.busy

let halt t =
  t.halted <- true;
  t.gen <- t.gen + 1

let resume t =
  if t.halted then begin
    t.halted <- false;
    (* The pre-crash backlog died with the crash; the CPU comes back
       idle. *)
    t.free_at <- Engine.now t.engine
  end

let halted t = t.halted
