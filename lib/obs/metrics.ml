type counter = { mutable c : int }
type gauge = { mutable g : int }

(* Log-linear buckets: values below [sub] map to their own bucket; above,
   each power-of-two octave is split into [sub] equal sub-buckets, so the
   bucket width is always <= value / sub (~6% relative error). *)
let sub_bits = 4
let sub = 1 lsl sub_bits

type histogram = {
  buckets : int array;
  mutable count : int;
  mutable sum : int;
  mutable min_v : int;
  mutable max_v : int;
}

let msb v =
  (* Highest set bit of v > 0. *)
  let r = ref 0 in
  let v = ref v in
  if !v lsr 32 <> 0 then begin r := !r + 32; v := !v lsr 32 end;
  if !v lsr 16 <> 0 then begin r := !r + 16; v := !v lsr 16 end;
  if !v lsr 8 <> 0 then begin r := !r + 8; v := !v lsr 8 end;
  if !v lsr 4 <> 0 then begin r := !r + 4; v := !v lsr 4 end;
  if !v lsr 2 <> 0 then begin r := !r + 2; v := !v lsr 2 end;
  if !v lsr 1 <> 0 then r := !r + 1;
  !r

let bucket_of v =
  if v < sub then v
  else
    let oct = msb v in
    sub + (((oct - sub_bits) * sub) + ((v lsr (oct - sub_bits)) land (sub - 1)))

(* Upper bound of a bucket: every sample in it is <= this. *)
let bucket_hi idx =
  if idx < sub then idx
  else begin
    let oct = ((idx - sub) / sub) + sub_bits in
    let off = (idx - sub) mod sub in
    let width = 1 lsl (oct - sub_bits) in
    (1 lsl oct) + ((off + 1) * width) - 1
  end

let n_buckets = bucket_of max_int + 1

(* Sliding-window histogram: samples land in [cur]; [rotate] retires
   [cur] to [prev] and starts a fresh window. Readers see either the
   just-completed window alone ([last_*]) or the merge of the two live
   windows ([window_*]) — never anything older, so tails reflect RECENT
   behaviour instead of the whole run. Rotation recycles the two
   histograms in place (no allocation on the tick path). *)
type windowed = {
  mutable cur : histogram;
  mutable prev : histogram;
  mutable rotations : int;
}

type metric =
  | Counter of counter
  | Gauge of gauge
  | Histogram of histogram
  | Windowed of windowed

type t = { tbl : (string, metric) Hashtbl.t }

let create () = { tbl = Hashtbl.create 32 }

let resolve t name kind make =
  match Hashtbl.find_opt t.tbl name with
  | Some m -> (
      match m with
      | Counter c -> ( match kind with `C -> `C c | _ -> invalid_arg ("Metrics: " ^ name ^ " is a counter"))
      | Gauge g -> ( match kind with `G -> `G g | _ -> invalid_arg ("Metrics: " ^ name ^ " is a gauge"))
      | Histogram h -> ( match kind with `H -> `H h | _ -> invalid_arg ("Metrics: " ^ name ^ " is a histogram"))
      | Windowed w -> ( match kind with `W -> `W w | _ -> invalid_arg ("Metrics: " ^ name ^ " is a windowed histogram")))
  | None ->
      let m = make () in
      Hashtbl.replace t.tbl name m;
      (match m with
      | Counter c -> `C c
      | Gauge g -> `G g
      | Histogram h -> `H h
      | Windowed w -> `W w)

let counter t name =
  match resolve t name `C (fun () -> Counter { c = 0 }) with
  | `C c -> c
  | _ -> assert false

let gauge t name =
  match resolve t name `G (fun () -> Gauge { g = 0 }) with
  | `G g -> g
  | _ -> assert false

let fresh_hist () =
  {
    buckets = Array.make n_buckets 0;
    count = 0;
    sum = 0;
    min_v = max_int;
    max_v = 0;
  }

let histogram t name =
  match resolve t name `H (fun () -> Histogram (fresh_hist ())) with
  | `H h -> h
  | _ -> assert false

let windowed t name =
  match
    resolve t name `W (fun () ->
        Windowed { cur = fresh_hist (); prev = fresh_hist (); rotations = 0 })
  with
  | `W w -> w
  | _ -> assert false

let incr c = c.c <- c.c + 1
let add c v = c.c <- c.c + v
let set g v = g.g <- v

let observe h v =
  let v = if v < 0 then 0 else v in
  h.buckets.(bucket_of v) <- h.buckets.(bucket_of v) + 1;
  h.count <- h.count + 1;
  h.sum <- h.sum + v;
  if v < h.min_v then h.min_v <- v;
  if v > h.max_v then h.max_v <- v

let value c = c.c
let gauge_value g = g.g

let counter_value t name =
  match Hashtbl.find_opt t.tbl name with Some (Counter c) -> c.c | _ -> 0

let fold_kind t f =
  Hashtbl.fold (fun name m acc -> match f name m with Some x -> x :: acc | None -> acc) t.tbl []
  |> List.sort compare

let counters t =
  fold_kind t (fun name -> function
    | Counter c -> Some (name, c.c)
    | Gauge _ | Histogram _ | Windowed _ -> None)

let hist_count h = h.count
let hist_max h = h.max_v

let hist_mean h =
  if h.count = 0 then 0. else float_of_int h.sum /. float_of_int h.count

(* Nearest-rank percentile over one or two histograms' buckets, clamped
   to the exact min/max observed across them. The two-histogram case is
   the windowed merged view; the single case is the classic cumulative
   one — same ranking either way. *)
let percentile_over hs p =
  if p < 0. || p > 1. then invalid_arg "Metrics.hist_percentile: rank out of range";
  let count = List.fold_left (fun acc h -> acc + h.count) 0 hs in
  if count = 0 then 0
  else begin
    let rank = max 1 (int_of_float (ceil (p *. float_of_int count))) in
    let seen = ref 0 and idx = ref 0 in
    (try
       for i = 0 to n_buckets - 1 do
         List.iter (fun h -> seen := !seen + h.buckets.(i)) hs;
         if !seen >= rank then begin
           idx := i;
           raise Exit
         end
       done
     with Exit -> ());
    let min_v = List.fold_left (fun acc h -> min acc h.min_v) max_int hs in
    let max_v = List.fold_left (fun acc h -> max acc h.max_v) 0 hs in
    max min_v (min max_v (bucket_hi !idx))
  end

let hist_percentile h p = percentile_over [ h ] p

(* --- windowed views ------------------------------------------------- *)

let wobserve w v = observe w.cur v

let reset_hist h =
  Array.fill h.buckets 0 n_buckets 0;
  h.count <- 0;
  h.sum <- 0;
  h.min_v <- max_int;
  h.max_v <- 0

let rotate w =
  (* Recycle: the retiring [prev] becomes the next (zeroed) [cur]. *)
  let recycled = w.prev in
  reset_hist recycled;
  w.prev <- w.cur;
  w.cur <- recycled;
  w.rotations <- w.rotations + 1

let rotations w = w.rotations
let last_count w = w.prev.count
let last_max w = w.prev.max_v
let last_percentile w p = percentile_over [ w.prev ] p
let window_count w = w.cur.count + w.prev.count
let window_max w = max w.cur.max_v w.prev.max_v

(* Over the merge of the current and previous windows: the freshest tail
   that never reads a half-filled window in isolation. *)
let window_percentile w p = percentile_over [ w.cur; w.prev ] p

let clear t =
  Hashtbl.iter
    (fun _ m ->
      match m with
      | Counter c -> c.c <- 0
      | Gauge g -> g.g <- 0
      | Histogram h -> reset_hist h
      | Windowed w ->
          reset_hist w.cur;
          reset_hist w.prev;
          w.rotations <- 0)
    t.tbl

let hist_json h =
  Json.Obj
    [
      ("count", Json.Int h.count);
      ("min", Json.Int (if h.count = 0 then 0 else h.min_v));
      ("max", Json.Int h.max_v);
      ("mean", Json.Float (hist_mean h));
      ("p50", Json.Int (hist_percentile h 0.5));
      ("p90", Json.Int (hist_percentile h 0.9));
      ("p99", Json.Int (hist_percentile h 0.99));
      ("p999", Json.Int (hist_percentile h 0.999));
    ]

let window_json w =
  Json.Obj
    [
      ("rotations", Json.Int w.rotations);
      ("count", Json.Int (window_count w));
      ("max", Json.Int (window_max w));
      ("p50", Json.Int (window_percentile w 0.5));
      ("p99", Json.Int (window_percentile w 0.99));
      ("last_count", Json.Int (last_count w));
      ("last_p99", Json.Int (last_percentile w 0.99));
    ]

let snapshot t =
  let gauges =
    fold_kind t (fun name -> function
      | Gauge g -> Some (name, Json.Int g.g)
      | Counter _ | Histogram _ | Windowed _ -> None)
  in
  let hists =
    fold_kind t (fun name -> function
      | Histogram h -> Some (name, hist_json h)
      | Counter _ | Gauge _ | Windowed _ -> None)
  in
  let windows =
    fold_kind t (fun name -> function
      | Windowed w -> Some (name, window_json w)
      | Counter _ | Gauge _ | Histogram _ -> None)
  in
  Json.Obj
    [
      ("counters", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) (counters t)));
      ("gauges", Json.Obj gauges);
      ("histograms", Json.Obj hists);
      ("windows", Json.Obj windows);
    ]
