module Rabia = Hovercraft_ordering.Rabia
module Rlog = Hovercraft_raft.Log
module Rng = Hovercraft_sim.Rng

type config = {
  n : int;
  cmds : int;
  steps : int;
  drop_prob : float;
  dup_prob : float;
  recover_prob : float;
  seed : int;
}

let default =
  {
    n = 3;
    cmds = 12;
    steps = 4_000;
    drop_prob = 0.1;
    dup_prob = 0.1;
    recover_prob = 0.002;
    seed = 1;
  }

type outcome = {
  decided : int;
  injected : int;
  agreed : bool;
  valid : bool;
  all_decided : bool;
  violations : string list;
}

(* One in-flight message; the bag is a list the scheduler indexes
   randomly, which is what buys reordering for free. *)
type packet = { dst : int; msg : (int * int, unit) Rabia.msg }

let run cfg =
  if cfg.n < 2 then invalid_arg "Rabia_check.run: n must be >= 2";
  let rng = Rng.create cfg.seed in
  let mk i =
    Rabia.create
      {
        Rabia.id = i;
        peers =
          Array.init (cfg.n - 1) (fun k -> if k < i then k else k + 1);
        batch_max = 4;
        coin_seed = cfg.seed lxor 0x5bd1e995;
      }
      ~key_of:(fun (c, _) -> Printf.sprintf "%06d" c)
      ~stamp_of:snd
  in
  let nodes = Array.init cfg.n mk in
  let bag : packet list ref = ref [] in
  let perform acts =
    List.iter
      (function
        | Rabia.Send (dst, msg) -> bag := { dst; msg } :: !bag
        | Rabia.Commit_advanced _ | Rabia.Appended_range _ -> ()
        | Rabia.Snapshot_installed _ ->
            (* No snapshots are ever registered, so none can arrive. *)
            assert false)
      acts
  in
  let feed i input = perform (Rabia.handle nodes.(i) input) in
  let deliver_at idx =
    let rec split k acc = function
      | [] -> assert false
      | p :: rest when k = 0 -> (p, List.rev_append acc rest)
      | p :: rest -> split (k - 1) (p :: acc) rest
    in
    let p, rest = split idx [] !bag in
    bag := rest;
    if Rng.bool rng cfg.drop_prob then ()
    else begin
      if Rng.bool rng cfg.dup_prob then bag := p :: !bag;
      feed p.dst (Rabia.Receive p.msg)
    end
  in
  let injected = ref 0 and sent = Hashtbl.create 64 in
  (* Command [c] goes to one random node stamped [10 * c]. A third of
     the time a client resend, a later-stamped copy, goes to a random
     node too, before or after it: replicas then hold copies that
     differ in stamp only. *)
  let inject () =
    incr injected;
    let c = !injected in
    let first = (Rng.int rng cfg.n, (c, 10 * c)) in
    let copies =
      if Rng.bool rng 0.3 then
        let resend = (Rng.int rng cfg.n, (c, (10 * c) + 1 + Rng.int rng 5)) in
        if Rng.bool rng 0.5 then [ first; resend ] else [ resend; first ]
      else [ first ]
    in
    List.iter
      (fun (i, cmd) ->
        Hashtbl.replace sent cmd ();
        feed i (Rabia.Client_command cmd))
      copies
  in
  (* Adversarial phase: random interleaving of delivery (with drops,
     duplication and, because the bag index is random, reordering),
     command injection at a single random node (dissemination is the
     backend's own job, via proposal adoption), ticks, and
     crash-recovery. *)
  for _ = 1 to cfg.steps do
    if Rng.bool rng cfg.recover_prob then
      Rabia.recover nodes.(Rng.int rng cfg.n);
    if !injected < cfg.cmds && Rng.bool rng 0.05 then inject ();
    match List.length !bag with
    | 0 -> feed (Rng.int rng cfg.n) Rabia.Tick
    | len ->
        if Rng.bool rng 0.15 then feed (Rng.int rng cfg.n) Rabia.Tick
        else deliver_at (Rng.int rng len)
  done;
  (* Make sure everything was offered at least once. *)
  while !injected < cfg.cmds do
    inject ()
  done;
  (* Calm phase: lossless delivery plus ticks until a full sweep makes no
     progress, so liveness (everything decides everywhere) is checkable
     rather than schedule-dependent. *)
  let fingerprint () =
    Array.fold_left
      (fun acc nd -> acc + (31 * Rabia.next_slot nd) + Rabia.pending nd)
      (List.length !bag) nodes
  in
  let quiet = ref 0 in
  while !quiet < 3 do
    let before = fingerprint () in
    while !bag <> [] do
      let p = List.hd !bag in
      bag := List.tl !bag;
      feed p.dst (Rabia.Receive p.msg)
    done;
    for i = 0 to cfg.n - 1 do
      feed i Rabia.Tick
    done;
    if fingerprint () = before then incr quiet else quiet := 0
  done;
  let violations = ref [] in
  let agreed = ref true and valid = ref true in
  let bad flag fmt =
    Printf.ksprintf
      (fun s ->
        flag := false;
        violations := s :: !violations)
      fmt
  in
  (* Agreement: entry terms are slot numbers and batches append
     atomically, so index-wise equality of (slot, cmd) pairs across every
     log IS per-slot agreement on the decided batches — stamps
     included. *)
  let entry i idx =
    let e = Rlog.get (Rabia.log nodes.(i)) idx in
    (e.Hovercraft_raft.Types.term, e.Hovercraft_raft.Types.cmd)
  in
  let last i = Rlog.last_index (Rabia.log nodes.(i)) in
  for i = 0 to cfg.n - 1 do
    for j = i + 1 to cfg.n - 1 do
      let common = min (last i) (last j) in
      for idx = 1 to common do
        let si, (ci, ti) = entry i idx and sj, (cj, tj) = entry j idx in
        if (si, ci, ti) <> (sj, cj, tj) then
          bad agreed
            "index %d: node%d has (slot %d, cmd %d@%d), node%d (slot %d, cmd \
             %d@%d)"
            idx i si ci ti j sj cj tj
      done
    done
  done;
  (* Validity: only injected copies ever decide. *)
  for i = 0 to cfg.n - 1 do
    for idx = 1 to last i do
      let _, (c, stamp) = entry i idx in
      if not (Hashtbl.mem sent (c, stamp)) then
        bad valid "node%d decided uninjected cmd %d@%d" i c stamp
    done
  done;
  (* Liveness after the calm phase: every command decided on every node
     (a decided command may appear in more than one slot; the embedder's
     exactly-once apply dedups — agreement, not uniqueness, is the
     invariant here). *)
  let all_decided = ref true in
  for i = 0 to cfg.n - 1 do
    let seen = Hashtbl.create 64 in
    for idx = 1 to last i do
      Hashtbl.replace seen (fst (snd (entry i idx))) ()
    done;
    for c = 1 to !injected do
      if not (Hashtbl.mem seen c) then begin
        all_decided := false;
        violations :=
          Printf.sprintf "cmd %d never decided on node%d" c i :: !violations
      end
    done
  done;
  {
    decided = last 0;
    injected = !injected;
    agreed = !agreed;
    valid = !valid;
    all_decided = !all_decided;
    violations = List.rev !violations;
  }
