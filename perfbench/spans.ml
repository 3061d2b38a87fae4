(* Wall-clock spans around the benchmark's own phases, kept in memory
   and written as JSON when the run ends. A span's parent is the span
   open when it started; self time is its duration minus the time its
   direct children cover. *)

type span = {
  id : int;
  parent : int option;
  name : string;
  start : float;
  mutable stop : float;
}

let enabled = ref false
let spans : span list ref = ref []
let stack : span list ref = ref []
let next_id = ref 0
let origin = Unix.gettimeofday ()

let with_span name f =
  if not !enabled then f ()
  else begin
    let s =
      {
        id = !next_id;
        parent = (match !stack with p :: _ -> Some p.id | [] -> None);
        name;
        start = Unix.gettimeofday () -. origin;
        stop = nan;
      }
    in
    incr next_id;
    spans := s :: !spans;
    stack := s :: !stack;
    Fun.protect f ~finally:(fun () ->
        s.stop <- Unix.gettimeofday () -. origin;
        stack := List.tl !stack)
  end

let to_json () =
  let module J = Hovercraft_obs.Json in
  let all = List.rev !spans in
  let child_time id =
    List.fold_left
      (fun acc c -> if c.parent = Some id then acc +. (c.stop -. c.start) else acc)
      0. all
  in
  J.List
    (List.map
       (fun s ->
         J.Obj
           [
             ("id", J.Int s.id);
             ("parent", match s.parent with Some p -> J.Int p | None -> J.Null);
             ("name", J.String s.name);
             ("start_s", J.Float s.start);
             ("end_s", J.Float s.stop);
             ("self_s", J.Float (s.stop -. s.start -. child_time s.id));
           ])
       all)

let write file =
  let oc = open_out file in
  output_string oc (Hovercraft_obs.Json.to_string (to_json ()));
  output_char oc '\n';
  close_out oc
