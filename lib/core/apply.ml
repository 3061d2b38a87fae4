open Hovercraft_sim
module Op = Hovercraft_apps.Op

type image = {
  s_app : Op.image;
  s_completions : Op.completion list;
  s_preloaded : int;
  s_clock : Timebase.t;
  s_index : int;
}

let image_bytes s =
  Op.image_bytes s.s_app
  + (Op.completion_wire_bytes * List.length s.s_completions)
  + 8 (* preload counter; the index is the snapshot's own last index *)

(* One expiry list, in insertion order. A record's stamp is the log clock
   it was recorded at, so expiry stops at the first live head even when a
   record seeded behind it is older. *)
type t = {
  state : Op.state;
  records : Op.result Rid_table.t;
  window : Timebase.t;
  mutable clock : Timebase.t;
  mutable index : int;
  mutable preloaded : int;
}

let fifo = 0

let create ~window () =
  {
    state = Op.create_state ();
    records = Rid_table.create ~capacity:1024 ~lists:1 ();
    window;
    clock = 0;
    index = 0;
    preloaded = 0;
  }

let state t = t.state
let clock t = t.clock
let index t = t.index
let preloaded t = t.preloaded

(* The one expiry rule: a record is live at log clock [now] while
   [now - stamp <= window]. *)
let live t ~now node = now - Rid_table.stamp t.records node <= t.window

let find t rid ~ordered_at =
  let node = Rid_table.find t.records rid in
  if Rid_table.is_nil node || not (live t ~now:(Int.max t.clock ordered_at) node)
  then None
  else Some (Rid_table.value t.records node)

(* Record [result] for [rid] stamped [at], unless a live record is there
   already or [at] itself is past the window. An expired record still in
   the table is dropped first, so the new one goes to the tail. *)
let record t rid result ~at =
  if t.clock - at <= t.window then begin
    let node = Rid_table.find t.records rid in
    if Rid_table.is_nil node || not (live t ~now:t.clock node) then begin
      Rid_table.remove_node t.records node;
      ignore (Rid_table.add t.records rid result ~stamp:at ~list:fifo)
    end
  end

let apply t ~index ~runs_reads ~internal ~rid ~read_only ~ordered_at op =
  if index <= t.index then
    (* Dispatched again after a restart: the state already holds this
       entry. A write answers from its record; nothing else runs. *)
    if internal || read_only then None
    else Option.map (fun r -> (r, 0)) (find t rid ~ordered_at:0)
  else begin
    t.index <- index;
    if internal then None
    else begin
      if ordered_at > t.clock then t.clock <- ordered_at;
      if read_only then
        (* Idempotent: no record. It runs where its reply leaves. *)
        if runs_reads then Some (Op.apply t.state op) else None
      else
        let node = Rid_table.find t.records rid in
        let hit = (not (Rid_table.is_nil node)) && live t ~now:t.clock node in
        let ((result, _) as outcome) =
          if hit then (Rid_table.value t.records node, 0) else Op.apply t.state op
        in
        (match op with
        | Op.Merge { completions; _ } ->
            (* The source group's records go in before this entry's own, in
               the same step: a rid the source already answered never
               re-executes here, e.g. a client retry of a pre-migration
               write that this group ordered again after the map flipped. *)
            List.iter
              (fun { Op.c_rid; c_result; c_at } -> record t c_rid c_result ~at:c_at)
              completions;
            record t rid result ~at:t.clock
        | _ ->
            (* Nothing was seeded since the lookup above: a miss there is
               still a miss, and its expired record (if any) is still
               [node]. *)
            if not hit then begin
              Rid_table.remove_node t.records node;
              ignore (Rid_table.add t.records rid result ~stamp:t.clock ~list:fifo)
            end);
        Some outcome
    end
  end

let preload t ops =
  List.iter (fun op -> ignore (Op.apply t.state op)) ops;
  t.preloaded <- t.preloaded + List.length ops

let expire t =
  Rid_table.expire t.records fifo ~now:t.clock ~limit:t.window
    (Rid_table.remove_node t.records);
  Rid_table.trim t.records

let records t =
  let acc = ref [] in
  Rid_table.iter_list t.records fifo (fun node ->
      if live t ~now:t.clock node then
        acc :=
          {
            Op.c_rid = Rid_table.rid t.records node;
            c_result = Rid_table.value t.records node;
            c_at = Rid_table.stamp t.records node;
          }
          :: !acc);
  List.rev !acc

let image t =
  {
    s_app = Op.snapshot t.state;
    s_completions = records t;
    s_preloaded = t.preloaded;
    s_clock = t.clock;
    s_index = t.index;
  }

let install t s =
  Op.install t.state s.s_app;
  Rid_table.reset t.records;
  t.clock <- s.s_clock;
  t.index <- s.s_index;
  List.iter
    (fun { Op.c_rid; c_result; c_at } -> record t c_rid c_result ~at:c_at)
    s.s_completions;
  t.preloaded <- s.s_preloaded
