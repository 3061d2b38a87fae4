(* The request path ([Intake]) against a list-based reference model.

   One node (id 0) of a three-node group takes random interleavings of
   client sends and same-rid retries, leadership changes, appended
   entries (a Raft leader's own appends, and entries that arrive in a
   follower append or a decided Rabia slot with or without the body
   having reached this node), applies, recovery responses, snapshot
   installs from a peer that has applied the whole log, and restarts
   that wipe the body store. After every step the decisions, the pending
   recoveries and the body-need rule must match the model. Log
   truncation stays out: the node has no input for it yet. *)

open Hovercraft_core
open Hovercraft_r2p2
module Addr = Hovercraft_net.Addr
module Op = Hovercraft_apps.Op

let me = 0
let nrids = 5

(* Odd ids are reads. *)
let rid i = { R2p2.id = i; src_addr = Addr.Client 0; src_port = 1000 }
let is_read i = i land 1 = 1

let body i =
  Op.Synth { cost = 10; read_only = is_read i; req_bytes = 8; rep_bytes = 8 }

type step =
  | Send of int * int  (* rid; replier of the leader's append, if any *)
  | Lead of bool  (* Raft: this node wins or loses leadership *)
  | Append of int * int  (* an entry arrives from the log: rid, replier *)
  | Apply_next
  | Respond of int  (* a recovery response carrying the body *)
  | Install
  | Restart of int  (* crash and restart; dispatch resumes k entries back *)

let pp_step = function
  | Send (r, p) -> Printf.sprintf "send %d (replier %d)" r p
  | Lead b -> Printf.sprintf "lead %b" b
  | Append (r, p) -> Printf.sprintf "append %d (replier %d)" r p
  | Apply_next -> "apply"
  | Respond r -> Printf.sprintf "respond %d" r
  | Install -> "install"
  | Restart k -> Printf.sprintf "restart -%d" k

(* The reference model: plain lists, rebuilt from the rules as stated. *)
type model = {
  mutable store : (int * bool) list;  (* rid -> ordered *)
  mutable pending : int list;
  mutable log : (int * int) list;  (* (rid, replier) by index, newest first *)
  mutable applied : int;  (* the state's applied index *)
  mutable ptr : int;  (* the dispatch pointer *)
  mutable leader : bool;
}

let entry m idx = List.nth m.log (List.length m.log - idx)

(* A write keeps a completion record from its first application: the
   window is far longer than any run. *)
let has_record m r =
  (not (is_read r))
  && List.exists
       (fun (i, (r', _)) -> r' = r && i <= m.applied)
       (List.mapi (fun k e -> (List.length m.log - k, e)) m.log)

let model_needs m idx =
  let r, replier = entry m idx in
  idx > m.applied && ((not (is_read r)) || replier = me) && not (has_record m r)

let ring = [| 0; 1; 2 |]

let rabia_owner r = ring.(R2p2.req_id_hash (rid r) land max_int mod 3) = me

let add_pending m r = if not (List.mem r m.pending) then m.pending <- r :: m.pending
let drop_pending m r = m.pending <- List.filter (( <> ) r) m.pending
let stored m r = List.mem_assoc r m.store
let ordered m r = List.assoc_opt r m.store = Some true

let run ~rabia steps =
  let apply = Apply.create ~window:(max_int / 4) () in
  let peer = Apply.create ~window:(max_int / 4) () in
  let t =
    Intake.create ~id:me ~path:Intake.Bound
      ~ring:(if rabia then ring else [||])
      ~leases:false ~lease_window:0 ~gc_unordered:1_000 ~gc_ordered:1_000 ~retry_max:3
      apply
  in
  let m = { store = []; pending = []; log = []; applied = 0; ptr = 0; leader = false } in
  let cmds = ref [] in
  let fail fmt = QCheck.Test.fail_reportf fmt in
  let append r replier =
    let cmd = Protocol.client_cmd ~rid:(rid r) ~at:1 (body r) in
    cmd.meta.replier <- replier;
    let idx = List.length m.log + 1 in
    cmds := !cmds @ [ cmd ];
    let replier = if rabia && replier < 0 then ring.(idx mod 3) else replier in
    m.log <- (r, replier) :: m.log;
    ignore
      (Apply.apply peer ~index:idx ~runs_reads:false ~internal:false ~rid:(rid r)
         ~read_only:(is_read r) ~ordered_at:1 (body r));
    let recover = Intake.bind t ~now:0 ~index:idx cmd.meta in
    if cmd.meta.replier <> replier then
      fail "entry %d: replier %d, want %d" idx cmd.meta.replier replier;
    (* The model: mark what is still to apply; recover what is missing and needed. *)
    let want =
      idx > m.applied
      &&
      if stored m r then (
        m.store <- (r, true) :: List.remove_assoc r m.store;
        false)
      else model_needs m idx
    in
    if recover <> want then fail "bind %d at %d: recover %b, want %b" r idx recover want;
    if recover then ignore (Intake.recover t ~now:0 (rid r));
    if want then add_pending m r
  in
  let step = function
    | Lead b -> if not rabia then m.leader <- b
    | Send (r, replier) -> (
        let got =
          Intake.admit t ~now:0 ~leader:m.leader ~members:[ 0; 1; 2 ] (rid r) (body r)
        in
        let owner = if rabia then rabia_owner r else m.leader in
        let want =
          if owner && has_record m r then `Replay
          else begin
            let was = ordered m r in
            if not (stored m r) then m.store <- (r, false) :: m.store;
            drop_pending m r;
            if rabia then if was then `Wait else `Propose
            else if not m.leader then `Wait
            else if (not was) || is_read r then `Propose
            else `Duplicate
          end
        in
        let name = function
          | `Replay -> "replay"
          | `Propose -> "propose"
          | `Wait -> "wait"
          | `Duplicate -> "duplicate"
        in
        let got' =
          match got with
          | Intake.Replay _ -> `Replay
          | Intake.Propose -> `Propose
          | Intake.Wait -> `Wait
          | Intake.Duplicate -> `Duplicate
          | Intake.Wrong_shard | Intake.Execute | Intake.Reject | Intake.Ignore ->
              fail "send %d: unexpected admission" r
        in
        if got' <> want then fail "send %d: %s, want %s" r (name got') (name want);
        (match got with
        | Intake.Propose | Intake.Wait | Intake.Duplicate ->
            ignore (Intake.resolve t ~now:0 (rid r))
        | _ -> ());
        (* A Raft leader orders what it proposes at once. *)
        match got with
        | Intake.Propose when not rabia -> append r replier
        | _ -> ())
    | Append (r, replier) -> append r (if rabia then -1 else replier)
    | Apply_next ->
        let idx = m.ptr + 1 in
        if idx <= List.length m.log then begin
          let cmd = List.nth !cmds (idx - 1) in
          let r, _ = entry m idx in
          let want_missing = (not (stored m r)) && model_needs m idx in
          match Intake.due t ~index:idx cmd with
          | None ->
              if not want_missing then fail "apply %d: stalled on an unneeded body" idx;
              ignore (Intake.recover t ~now:0 (rid r));
              add_pending m r
          | Some op ->
              if want_missing then fail "apply %d: dispatched without a needed body" idx;
              ignore
                (Apply.apply apply ~index:idx ~runs_reads:(cmd.meta.replier = me)
                   ~internal:false ~rid:(rid r) ~read_only:(is_read r) ~ordered_at:1 op);
              m.ptr <- idx;
              m.applied <- Int.max m.applied idx;
              ignore (Intake.resolve t ~now:0 (rid r));
              drop_pending m r
        end
    | Respond r ->
        let was = List.mem r m.pending in
        if Intake.deliver t ~now:0 (rid r) (body r) then begin
          if not was then fail "respond %d: delivered with no recovery pending" r;
          ignore (Intake.resolve t ~now:0 (rid r));
          m.store <- (r, true) :: List.remove_assoc r m.store;
          drop_pending m r
        end
        else if was then fail "respond %d: pending recovery not resolved" r
    | Install ->
        if Apply.index peer > m.ptr then begin
          Apply.install apply (Apply.image peer);
          Intake.install t;
          m.ptr <- Apply.index peer;
          m.applied <- Apply.index peer;
          m.pending <- []
        end
    | Restart k ->
        Intake.crash t;
        Intake.restart t;
        m.store <- [];
        m.pending <- [];
        m.ptr <- Int.max 0 (m.ptr - k)
  in
  let check_state s =
    if Apply.index apply <> m.applied then
      fail "after %s: applied %d, want %d" s (Apply.index apply) m.applied;
    for r = 0 to nrids - 1 do
      let p = Intake.pending t (rid r) in
      if p <> List.mem r m.pending then fail "after %s: rid %d pending %b" s r p;
      (* A recovery is pending only for an entry above the applied index
         that needs a body the store lacks. *)
      if
        p
        && not
             (Intake.body t (rid r) = None
             && List.exists
                  (fun idx -> fst (entry m idx) = r && model_needs m idx)
                  (List.init (List.length m.log) (fun i -> i + 1)))
      then fail "after %s: rid %d pending with nothing to recover" s r
    done;
    List.iteri
      (fun i (cmd : Protocol.cmd) ->
        let idx = i + 1 in
        let r = cmd.meta.rid.R2p2.id in
        let got = Intake.needs_body t ~index:idx cmd.meta in
        if got <> model_needs m idx then fail "after %s: needs_body at %d is %b" s idx got;
        let replays = Apply.find apply (rid r) ~ordered_at:1 <> None in
        if
          got
          && (idx <= Apply.index apply
             || (is_read r && cmd.meta.replier <> me)
             || ((not (is_read r)) && replays))
        then fail "after %s: body needed at %d" s idx)
      !cmds
  in
  List.iter
    (fun s ->
      step s;
      check_state (pp_step s))
    steps;
  true

let step_gen =
  let open QCheck.Gen in
  let r = int_bound (nrids - 1) and p = int_bound 2 in
  frequency
    [
      (5, map2 (fun r p -> Send (r, p)) r p);
      (1, map (fun b -> Lead b) bool);
      (4, map2 (fun r p -> Append (r, p)) r p);
      (5, return Apply_next);
      (2, map (fun r -> Respond r) r);
      (1, return Install);
      (1, map (fun k -> Restart k) (int_bound 3));
    ]

let steps_arb =
  QCheck.make
    ~shrink:QCheck.Shrink.(pair nil list)
    ~print:(fun (rabia, steps) ->
      (if rabia then "rabia: " else "raft: ") ^ String.concat "; " (List.map pp_step steps))
    QCheck.Gen.(pair bool (list_size (int_range 1 60) step_gen))

let prop_intake_model =
  QCheck.Test.make ~name:"intake decisions match the reference model" ~count:1000
    steps_arb (fun (rabia, steps) -> run ~rabia steps)

let suite = [ QCheck_alcotest.to_alcotest prop_intake_model ]
