(* Keys and payloads for every generator below. They run per generated
   op, so keys fill their digits without the format interpreter, and
   since a value's content depends only on its sequence number mod 26, a
   generator hands out one of the 26 strings it built at [create]. *)

(* [prefix] then [i] zero-padded to [width] digits, for
   [0 <= i < 10^width]. *)
let padded prefix width i =
  let p = String.length prefix in
  let b = Bytes.create (p + width) in
  Bytes.blit_string prefix 0 b 0 p;
  let v = ref i in
  for k = p + width - 1 downto p do
    Bytes.unsafe_set b k (Char.unsafe_chr (48 + (!v mod 10)));
    v := !v / 10
  done;
  Bytes.unsafe_to_string b

let user_key i =
  if i >= 0 && i < 100_000_000 then padded "user" 8 i
  else Printf.sprintf "user%08d" i

let thread_key i =
  if i >= 0 && i < 100_000 then padded "thread" 5 i
  else Printf.sprintf "thread%05d" i

let rotations len =
  Array.init 26 (fun r -> String.init len (fun j -> Char.chr (97 + ((r + j) mod 26))))

type spec = {
  threads : int;
  scan_fraction : float;
  max_scan : int;
  fields : int;
  field_bytes : int;
  theta : float;
}

let workload_e =
  {
    threads = 1000;
    scan_fraction = 0.95;
    max_scan = 10;
    fields = 10;
    field_bytes = 100;
    theta = 0.99;
  }

type t = {
  spec : spec;
  rng : Hovercraft_sim.Rng.t;
  zipf : Zipf.t;
  names : string array;  (* "field0", "field1", … *)
  values : string array;  (* rotations spec.field_bytes *)
  mutable seq : int;
}

let create ?(spec = workload_e) ~seed () =
  {
    spec;
    rng = Hovercraft_sim.Rng.create seed;
    zipf = Zipf.create ~theta:spec.theta ~n:spec.threads ();
    names = Array.init spec.fields (Printf.sprintf "field%d");
    values = rotations spec.field_bytes;
    seq = 0;
  }

let draw_thread t = thread_key (Zipf.sample t.zipf t.rng)

(* Deterministic per-record content: replicas must agree. *)
let make_record t =
  t.seq <- t.seq + 1;
  let base = t.seq in
  List.init t.spec.fields (fun i -> (t.names.(i), t.values.((base + i) mod 26)))

let insert t = Op.Kv (Kvstore.Insert { thread = draw_thread t; record = make_record t })

let scan t =
  Op.Kv (Kvstore.Scan { thread = draw_thread t; limit = t.spec.max_scan })

let preload_ops t n = List.init n (fun _ -> insert t)

let next t =
  if Hovercraft_sim.Rng.bool t.rng t.spec.scan_fraction then scan t else insert t

let spec_of t = t.spec

module Kv = struct
  type nonrec t = {
    read_fraction : float;
    records : int;
    rng : Hovercraft_sim.Rng.t;
    zipf : Zipf.t;
    values : string array;  (* rotations 1000 *)
    mutable seq : int;
  }

  let create ~read_fraction ?(records = 10_000) ?(theta = 0.99) ~seed () =
    if read_fraction < 0. || read_fraction > 1. then
      invalid_arg "Ycsb.Kv.create: read_fraction outside [0,1]";
    {
      read_fraction;
      records;
      rng = Hovercraft_sim.Rng.create seed;
      zipf = Zipf.create ~theta ~n:records ();
      values = rotations 1000;
      seq = 0;
    }

  let key t = user_key (Zipf.sample t.zipf t.rng)

  (* A 1 kB record value, deterministic per sequence number so replicas
     agree on replayed streams. *)
  let value t =
    t.seq <- t.seq + 1;
    t.values.(t.seq mod 26)

  let preload_ops t =
    List.init t.records (fun i -> Op.Kv (Kvstore.Put (user_key i, value t)))

  let next t =
    if Hovercraft_sim.Rng.bool t.rng t.read_fraction then
      Op.Kv (Kvstore.Get (key t))
    else Op.Kv (Kvstore.Put (key t, value t))

  let workload_a ~seed = create ~read_fraction:0.5 ~seed ()
  let workload_b ~seed = create ~read_fraction:0.95 ~seed ()
  let workload_c ~seed = create ~read_fraction:1.0 ~seed ()
end
