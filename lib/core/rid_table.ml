open Hovercraft_r2p2

(* Entries live in chunks of [chunk] slots; handle [h] is slot
   [h land chunk_mask] of chunk [h lsr chunk_bits]. Each chunk is three
   arrays: the ids, the values and one int block holding, per slot,
   [stride] consecutive words — so an entry's stamp, tag and list links
   share a cache line, and relinking one is plain int writes. Chunks are
   added, never resized, so the table never copies its entries; small
   chunks keep a lightly used table small. *)
let chunk_bits = 8
let chunk = 1 lsl chunk_bits
let chunk_mask = chunk - 1
let stride = 4
let f_stamp = 0
let f_tag = 1
let f_prev = 2
let f_next = 3
let nil = -1

(* A tag packs the entry's insertion order above the number of the list
   it is on. *)
let list_bits = 2
let list_mask = (1 lsl list_bits) - 1
let free_tag = -1

(* Entries are found through per-client {e windows}. A client (address,
   port) owns one of [clients] slots of a direct table, claimed on its
   first add and kept until {!reset}; its window is a power-of-two [int]
   array indexed by [id land mask], each slot 0 when empty, otherwise the
   id above [handle + 1]. A client's ids increase, so its live ids are a
   run the window covers: a new id only collides with a live one once the
   run outgrows the window, and the window then doubles until the two
   part, as long as that stays within [window_cap] slots.

   Everything a window cannot hold goes to the {e overflow}: an
   open-addressed index of one [int] per slot (linear probing, load at
   most 3/4, backward-shift deletion) packing the id's 31-bit hash above
   [handle + 1]. It takes ids outside [0, 2^id_bits), ids colliding with
   a live id [window_cap] or more away, clients past the direct table's
   [clients], and handles too wide to pack.

   An entry's [f_prev] word records where it went, above the predecessor
   link: 0 for the overflow, otherwise its client's slot plus one in the
   low [client_bits], and above them the id's low bits, which give its
   window slot at any window size. Removing or moving the entry then
   reads neither its id nor its hash. *)
let entry_bits = 32
let entry_mask = (1 lsl entry_bits) - 1
let handle_bits = 24
let handle_mask = (1 lsl handle_bits) - 1
let id_bits = Sys.int_size - 1 - handle_bits
let window_min = 64
let window_cap = 1 lsl 17
let clients = 16
let client_bits = 5
let client_mask = (1 lsl client_bits) - 1
let hash31 rid = R2p2.req_id_hash rid land 0x7FFF_FFFF
let vacant = { R2p2.id = -1; src_addr = Hovercraft_net.Addr.Router; src_port = -1 }

type 'a t = {
  initial : int;
  mutable index : int array;  (* the overflow *)
  mutable spilled : int;  (* entries in the overflow *)
  c_addr : Hovercraft_net.Addr.t array;  (* the direct table of clients *)
  c_port : int array;
  wins : int array array;  (* [||] for a free client slot *)
  mutable last : int;  (* the client slot found last, or -1 *)
  mutable size : int;
  mutable rids : R2p2.req_id array array;
  mutable values : 'a array array;
  mutable fills : 'a array;  (* per chunk: what a freed value slot holds *)
  mutable ints : int array array;
  mutable chunks : int;
  mutable fresh : int;  (* lowest handle never used *)
  mutable free : int;  (* freed handles, threaded through [f_next] *)
  heads : int array;
  tails : int array;
  counts : int array;
  mutable order : int;
}

let rec pow2_at_least n x = if x >= n then x else pow2_at_least n (x * 2)

(* The index of every table that has not spilled yet: one empty slot,
   never written (the first spill grows the index first). A table that
   never spills costs no index. *)
let no_index = [| 0 |]

let create ~capacity ~lists () =
  if lists < 1 || lists > list_mask + 1 then
    invalid_arg "Rid_table.create: lists must be in 1..4";
  let initial = pow2_at_least (Int.max capacity 1) 1 in
  {
    initial;
    index = no_index;
    spilled = 0;
    c_addr = Array.make clients vacant.src_addr;
    c_port = Array.make clients 0;
    wins = Array.make clients [||];
    last = -1;
    size = 0;
    rids = [||];
    values = [||];
    fills = [||];
    ints = [||];
    chunks = 0;
    fresh = 0;
    free = nil;
    heads = Array.make lists nil;
    tails = Array.make lists nil;
    counts = Array.make lists 0;
    order = 0;
  }

let is_nil h = h < 0
let block t h = t.ints.(h lsr chunk_bits)
let base h = (h land chunk_mask) * stride
let get t h f = (block t h).(base h + f)
let set t h f v = (block t h).(base h + f) <- v
let rid t h = t.rids.(h lsr chunk_bits).(h land chunk_mask)
let value t h = t.values.(h lsr chunk_bits).(h land chunk_mask)
let stamp t h = get t h f_stamp
let list t h = get t h f_tag land list_mask
let order t h = get t h f_tag lsr list_bits
let length t = t.size
let spilled t = t.spilled
let count t l = t.counts.(l)

(* --- the overflow ------------------------------------------------------ *)

let rec probe t idx mask key h i =
  let s = Array.unsafe_get idx i in
  if s = 0 then nil
  else if s lsr entry_bits = h && R2p2.req_id_equal (rid t ((s land entry_mask) - 1)) key
  then (s land entry_mask) - 1
  else probe t idx mask key h ((i + 1) land mask)

let find_spilled t key =
  if t.spilled = 0 then nil
  else
    let h = hash31 key in
    let mask = Array.length t.index - 1 in
    probe t t.index mask key h (h land mask)

let rec place idx mask s i =
  if Array.unsafe_get idx i = 0 then Array.unsafe_set idx i s
  else place idx mask s ((i + 1) land mask)

let home s mask = (s lsr entry_bits) land mask

let grow_index t =
  let idx = Array.make (Int.max t.initial (2 * Array.length t.index)) 0 in
  let mask = Array.length idx - 1 in
  Array.iter (fun s -> if s <> 0 then place idx mask s (home s mask)) t.index;
  t.index <- idx

let rec slot_of idx mask s i =
  if Array.unsafe_get idx i = s then i else slot_of idx mask s ((i + 1) land mask)

(* Backward-shift deletion: close the hole at [hole] by pulling back each
   later slot of its probe run that may legally sit there — one whose
   home is not cyclically inside (hole, j]. *)
let rec shift idx mask hole j =
  let j = (j + 1) land mask in
  let s = Array.unsafe_get idx j in
  if s = 0 then Array.unsafe_set idx hole 0
  else if (j - home s mask) land mask >= (j - hole) land mask then begin
    Array.unsafe_set idx hole s;
    shift idx mask j j
  end
  else shift idx mask hole j

let spill t rid h =
  if (t.spilled + 1) * 4 > Array.length t.index * 3 then grow_index t;
  let mask = Array.length t.index - 1 in
  let hash = hash31 rid in
  place t.index mask ((hash lsl entry_bits) lor (h + 1)) (hash land mask);
  t.spilled <- t.spilled + 1

let unspill t rid h =
  let key = (hash31 rid lsl entry_bits) lor (h + 1) in
  let mask = Array.length t.index - 1 in
  let hole = slot_of t.index mask key (home key mask) in
  shift t.index mask hole hole;
  t.spilled <- t.spilled - 1

(* --- client windows ---------------------------------------------------- *)

(* Clients are told apart by port first: the load generator numbers its
   clients' ports consecutively, so they have distinct home slots. Ids
   from one source share their address value, so the address compare is
   usually a pointer compare. *)
let client_home port = port land (clients - 1)
let same_addr a b = a == b || Hovercraft_net.Addr.equal a b

(* Linear probing from the client's home: its slot if it has one,
   otherwise [-2 - i] for the free slot [i] it would take, or [-1] when
   the table is full. *)
let rec seek t addr port i n =
  if n = clients then -1
  else if Array.length (Array.unsafe_get t.wins i) = 0 then -2 - i
  else if Array.unsafe_get t.c_port i = port && same_addr (Array.unsafe_get t.c_addr i) addr
  then i
  else seek t addr port ((i + 1) land (clients - 1)) (n + 1)

(* The client's slot, or a negative number when it has none. *)
let client t (key : R2p2.req_id) =
  let c = t.last in
  if
    c >= 0
    && Array.unsafe_get t.c_port c = key.src_port
    && same_addr (Array.unsafe_get t.c_addr c) key.src_addr
  then c
  else
    let c = seek t key.src_addr key.src_port (client_home key.src_port) 0 in
    if c >= 0 then t.last <- c;
    c

(* The same, giving a new client the free slot and a window of
   [window_min] slots; -1 when the table is full. *)
let claim t (key : R2p2.req_id) =
  let c = client t key in
  if c >= -1 then c
  else begin
    let c = -2 - c in
    t.c_addr.(c) <- key.src_addr;
    t.c_port.(c) <- key.src_port;
    t.wins.(c) <- Array.make window_min 0;
    t.last <- c;
    c
  end

let find t (key : R2p2.req_id) =
  let id = key.id in
  if id lsr id_bits <> 0 then find_spilled t key
  else
    let c = client t key in
    if c < 0 then find_spilled t key
    else
      let w = Array.unsafe_get t.wins c in
      (* [d] is [handle + 1] exactly when the slot holds this id. *)
      let d = Array.unsafe_get w (id land (Array.length w - 1)) - (id lsl handle_bits) in
      if d > 0 && d <= handle_mask then d - 1 else find_spilled t key

let mem t key = find t key >= 0

let grow_window t c size =
  let old = t.wins.(c) and w = Array.make size 0 in
  let mask = size - 1 in
  for i = 0 to Array.length old - 1 do
    let s = Array.unsafe_get old i in
    if s <> 0 then w.((s lsr handle_bits) land mask) <- s
  done;
  t.wins.(c) <- w

(* Put [id] in client [c]'s window, doubling it past the distance to a
   live id in the way; [false] when that would pass [window_cap]. *)
let rec settle t c id h =
  let w = t.wins.(c) in
  let i = id land (Array.length w - 1) in
  let s = w.(i) in
  if s = 0 then begin
    w.(i) <- (id lsl handle_bits) lor (h + 1);
    true
  end
  else
    let apart = abs (id - (s lsr handle_bits)) in
    apart < window_cap
    && begin
         grow_window t c (pow2_at_least (apart + 1) (2 * Array.length w));
         settle t c id h
       end

(* File a new entry; its location for [f_prev]. *)
let locate t (rid : R2p2.req_id) h =
  let c =
    if rid.id lsr id_bits <> 0 || h >= handle_mask then -1 else claim t rid
  in
  if c >= 0 && settle t c rid.id h then
    ((rid.id land (window_cap - 1)) lsl client_bits) lor (c + 1)
  else begin
    spill t rid h;
    0
  end

(* --- expiry lists ------------------------------------------------------ *)

let set_prev b o p = b.(o + f_prev) <- b.(o + f_prev) land lnot entry_mask lor (p + 1)

let append t h l =
  let b = block t h and o = base h in
  let tail = t.tails.(l) in
  b.(o + f_tag) <- b.(o + f_tag) land lnot list_mask lor l;
  set_prev b o tail;
  b.(o + f_next) <- nil;
  if tail < 0 then t.heads.(l) <- h else set t tail f_next h;
  t.tails.(l) <- h;
  t.counts.(l) <- t.counts.(l) + 1

let unlink t h =
  let b = block t h and o = base h in
  let l = b.(o + f_tag) land list_mask in
  let prev = (b.(o + f_prev) land entry_mask) - 1 and next = b.(o + f_next) in
  if prev < 0 then t.heads.(l) <- next else set t prev f_next next;
  if next < 0 then t.tails.(l) <- prev else set_prev (block t next) (base next) prev;
  t.counts.(l) <- t.counts.(l) - 1

let move t h ~list ~stamp =
  if h < 0 then invalid_arg "Rid_table.move: absent entry";
  unlink t h;
  set t h f_stamp stamp;
  append t h list

let rec iter_from t f h =
  if h >= 0 then begin
    (* Read the successor first: [f] may take its entry off the list. *)
    let next = get t h f_next in
    f h;
    iter_from t f next
  end

let iter_list t l f = iter_from t f t.heads.(l)

let rec expire t l ~now ~limit f =
  let h = t.heads.(l) in
  if h >= 0 && now - get t h f_stamp > limit then begin
    f h;
    if t.heads.(l) = h then
      invalid_arg "Rid_table.expire: callback left its entry on the list";
    expire t l ~now ~limit f
  end

(* --- entry storage ----------------------------------------------------- *)

let grown dir fill =
  let d = Array.make (Int.max 4 (2 * Array.length dir)) fill in
  Array.blit dir 0 d 0 (Array.length dir);
  d

(* A new chunk is filled with the value that opens it: freed slots are
   reset to it, so they never hold on to a removed value. *)
let add_chunk t value =
  let rids = Array.make chunk vacant
  and values = Array.make chunk value
  and ints = Array.make (chunk * stride) 0 in
  if t.chunks = Array.length t.ints then begin
    t.rids <- grown t.rids rids;
    t.values <- grown t.values values;
    t.fills <- grown t.fills value;
    t.ints <- grown t.ints ints
  end;
  t.rids.(t.chunks) <- rids;
  t.values.(t.chunks) <- values;
  t.fills.(t.chunks) <- value;
  t.ints.(t.chunks) <- ints;
  t.chunks <- t.chunks + 1

let alloc t value =
  if t.free >= 0 then begin
    let h = t.free in
    t.free <- get t h f_next;
    h
  end
  else begin
    let h = t.fresh in
    if h lsr chunk_bits = t.chunks then add_chunk t value;
    t.fresh <- h + 1;
    h
  end

let add t rid value ~stamp ~list =
  let h = alloc t value in
  let c = h lsr chunk_bits and i = h land chunk_mask in
  t.rids.(c).(i) <- rid;
  t.values.(c).(i) <- value;
  t.order <- t.order + 1;
  let b = t.ints.(c) and o = i * stride in
  b.(o + f_prev) <- locate t rid h lsl entry_bits;
  b.(o + f_stamp) <- stamp;
  b.(o + f_tag) <- t.order lsl list_bits;
  t.size <- t.size + 1;
  append t h list;
  h

let remove_node t h =
  if h >= 0 then begin
    let c = h lsr chunk_bits and i = h land chunk_mask in
    let loc = t.ints.(c).((i * stride) + f_prev) lsr entry_bits in
    if loc = 0 then unspill t t.rids.(c).(i) h
    else begin
      let w = t.wins.((loc land client_mask) - 1) in
      w.((loc lsr client_bits) land (Array.length w - 1)) <- 0
    end;
    unlink t h;
    t.rids.(c).(i) <- vacant;
    t.values.(c).(i) <- t.fills.(c);
    set t h f_tag free_tag;
    set t h f_next t.free;
    t.free <- h;
    t.size <- t.size - 1
  end

let remove t rid = remove_node t (find t rid)

(* --- giving storage back ---------------------------------------------- *)

(* Move the entry in slot [h] to the free slot [dst]: its words, its
   neighbours' links and its window or overflow slot follow it. *)
let relocate t h dst =
  let b = block t h and o = base h in
  let b' = block t dst and o' = base dst in
  Array.blit b o b' o' stride;
  t.rids.(dst lsr chunk_bits).(dst land chunk_mask) <- rid t h;
  t.values.(dst lsr chunk_bits).(dst land chunk_mask) <- value t h;
  let l = b.(o + f_tag) land list_mask in
  let prev = (b.(o + f_prev) land entry_mask) - 1 and next = b.(o + f_next) in
  if prev < 0 then t.heads.(l) <- dst else set t prev f_next dst;
  if next < 0 then t.tails.(l) <- dst else set_prev (block t next) (base next) dst;
  match b.(o + f_prev) lsr entry_bits with
  | 0 ->
      let key = (hash31 (rid t h) lsl entry_bits) lor (h + 1) in
      let mask = Array.length t.index - 1 in
      let i = slot_of t.index mask key (home key mask) in
      t.index.(i) <- key land lnot entry_mask lor (dst + 1)
  | loc ->
      let w = t.wins.((loc land client_mask) - 1) in
      let i = (loc lsr client_bits) land (Array.length w - 1) in
      w.(i) <- w.(i) land lnot handle_mask lor (dst + 1)

(* Free slots are [fresh - size]. An expiry pass in steady state frees
   a small share of what is retained, and adds soon reuse it; a quarter
   or more means the table has shrunk. Then pack the entries into the
   fewest chunks and drop the rest, so a drain or a burst does not pin
   its peak storage. *)
let trim t =
  let spare = t.fresh - t.size in
  if spare > chunk && 4 * spare > t.size then begin
    let keep = (t.size + chunk_mask) lsr chunk_bits in
    let bound = keep lsl chunk_bits in
    (* Free slots below [bound] receive the entries above it. *)
    let rec low h acc =
      if h < 0 then acc
      else
        let next = get t h f_next in
        if h < bound then begin
          set t h f_next acc;
          low next h
        end
        else low next acc
    in
    t.free <- low t.free nil;
    for h = bound to t.fresh - 1 do
      if get t h f_tag <> free_tag then begin
        let dst = t.free in
        t.free <- get t dst f_next;
        relocate t h dst
      end
    done;
    if keep = 0 then begin
      t.rids <- [||];
      t.values <- [||];
      t.fills <- [||];
      t.ints <- [||]
    end
    else
      for c = keep to t.chunks - 1 do
        t.rids.(c) <- [||];
        t.values.(c) <- [||];
        t.ints.(c) <- [||];
        t.fills.(c) <- t.fills.(0)
      done;
    t.chunks <- keep;
    t.fresh <- bound
  end

let reset t =
  t.index <- no_index;
  t.spilled <- 0;
  Array.fill t.wins 0 clients [||];
  t.last <- -1;
  t.size <- 0;
  t.rids <- [||];
  t.values <- [||];
  t.fills <- [||];
  t.ints <- [||];
  t.chunks <- 0;
  t.fresh <- 0;
  t.free <- nil;
  Array.fill t.heads 0 (Array.length t.heads) nil;
  Array.fill t.tails 0 (Array.length t.tails) nil;
  Array.fill t.counts 0 (Array.length t.counts) 0
