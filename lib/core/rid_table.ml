open Hovercraft_r2p2

(* Entries live in chunks of [chunk] slots; handle [h] is slot
   [h land chunk_mask] of chunk [h lsr chunk_bits]. Each chunk is two
   arrays: the values, and one int block holding, per slot, [stride]
   consecutive words — the entry's stamp, its tag and its list links —
   so they share a cache line, and relinking one is plain int writes.
   Chunks are added, never resized, so the table never copies its
   entries; small chunks keep a lightly used table small. No entry
   stores its id: its tag says where it is filed, and the window or
   overflow slot it is filed in gives the id back (see [rid]). *)
let chunk_bits = 8
let chunk = 1 lsl chunk_bits
let chunk_mask = chunk - 1
let stride = 3
let f_stamp = 0
let f_tag = 1
let f_links = 2
let nil = -1

(* The links word holds the predecessor above the successor, [link_bits]
   each. An end of a list links to itself, so no value is spent on
   "none" and handles run up to [max_handles]. A free slot's links word
   is the next free handle, or the slot itself for the last. *)
let link_bits = 31
let link_mask = (1 lsl link_bits) - 1
let max_handles = 1 lsl link_bits

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
   most 3/4, backward-shift deletion) packing the id's [fp_bits]-bit
   fingerprint above [handle + 1], beside a [keys] array holding the id
   itself. It takes ids outside [0, 2^id_bits), ids colliding with a live
   id [window_cap] or more away, clients past the direct table's
   [clients], and handles too wide to pack. *)
let entry_bits = 32
let entry_mask = (1 lsl entry_bits) - 1
let handle_bits = 24
let handle_mask = (1 lsl handle_bits) - 1
let id_bits = Sys.int_size - 1 - handle_bits
let window_min = 64
let window_bits = 17
let window_cap = 1 lsl window_bits
let client_bits = 4
let clients = 1 lsl client_bits

(* An entry's tag packs, from the low bits up: the list it is on, where
   it is filed ([loc_bits]), and its insertion order; a free slot's tag
   is -1. The location's low bit is 1 for a window, and above it sit the
   client's slot and the id's low [window_bits], which give its window
   slot at any window size; it is 0 for the overflow, and above it sits
   the id's fingerprint, which gives its probe run. Removing or moving
   an entry then reads neither its id nor its hash. *)
let list_bits = 2
let list_mask = (1 lsl list_bits) - 1
let loc_bits = 1 + client_bits + window_bits
let loc_mask = (1 lsl loc_bits) - 1
let order_shift = list_bits + loc_bits
let max_order = (1 lsl (Sys.int_size - 1 - order_shift)) - 1
let free_tag = -1
let fp_bits = loc_bits - 1
let fp_mask = (1 lsl fp_bits) - 1
let fingerprint rid = R2p2.req_id_hash rid land fp_mask

type 'a t = {
  initial : int;
  mutable index : int array;  (* the overflow *)
  mutable keys : R2p2.req_id array;  (* per overflow slot: its entry's id *)
  mutable spilled : int;  (* entries in the overflow *)
  mutable c_addr : Hovercraft_net.Addr.t array;  (* the direct table of clients *)
  mutable c_port : int array;
  mutable wins : int array array;  (* [||] for a free client slot *)
  mutable last : int;  (* the client slot found last, or -1 *)
  mutable size : int;
  mutable values : 'a array array;
  mutable fills : 'a array;  (* per chunk: what a freed value slot holds *)
  mutable ints : int array array;
  mutable chunks : int;
  mutable fresh : int;  (* lowest handle never used *)
  mutable free : int;  (* freed handles, threaded through [f_links] *)
  heads : int array;
  tails : int array;
  counts : int array;
  mutable order : int;
}

let rec pow2_at_least n x = if x >= n then x else pow2_at_least n (x * 2)

(* The index of every table that has not spilled yet: one empty slot,
   never written (the first spill grows the index first). A table that
   never spills costs no index and no keys. *)
let no_index = [| 0 |]

(* Likewise the direct table of a table no client has added to: shared
   and never written, until the first claim gives the table its own. *)
let no_addr = Array.make clients Hovercraft_net.Addr.Router
let no_port = Array.make clients 0
let no_wins = Array.make clients [||]

let create ~capacity ~lists () =
  if lists < 1 || lists > list_mask + 1 then
    invalid_arg "Rid_table.create: lists must be in 1..4";
  let initial = pow2_at_least (Int.max capacity 1) 1 in
  {
    initial;
    index = no_index;
    keys = [||];
    spilled = 0;
    c_addr = no_addr;
    c_port = no_port;
    wins = no_wins;
    last = -1;
    size = 0;
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
let value t h = t.values.(h lsr chunk_bits).(h land chunk_mask)
let stamp t h = get t h f_stamp
let list t h = get t h f_tag land list_mask
let order t h = get t h f_tag lsr order_shift
let length t = t.size
let spilled t = t.spilled
let count t l = t.counts.(l)
let loc_of tag = (tag lsr list_bits) land loc_mask

(* --- the overflow ------------------------------------------------------ *)

(* A fingerprint's home slot. Past [2^fp_bits] slots the homes spread
   out evenly rather than crowd the bottom of the index. *)
let home fp mask = if mask < fp_mask then fp land mask else fp * ((mask + 1) lsr fp_bits)

let rec probe t mask key fp i =
  let s = Array.unsafe_get t.index i in
  if s = 0 then nil
  else if s lsr entry_bits = fp && R2p2.req_id_equal (Array.unsafe_get t.keys i) key
  then (s land entry_mask) - 1
  else probe t mask key fp ((i + 1) land mask)

let find_spilled t key =
  if t.spilled = 0 then nil
  else
    let fp = fingerprint key in
    let mask = Array.length t.index - 1 in
    probe t mask key fp (home fp mask)

let rec place idx keys mask s key i =
  if Array.unsafe_get idx i = 0 then begin
    Array.unsafe_set idx i s;
    Array.unsafe_set keys i key
  end
  else place idx keys mask s key ((i + 1) land mask)

(* Empty key slots all hold one id, [fill]: the one whose spill grew the
   index last. Nothing else outlives its removal. *)
let grow_index t fill =
  let size = Int.max t.initial (2 * Array.length t.index) in
  let idx = Array.make size 0 and keys = Array.make size fill in
  let mask = size - 1 in
  for i = 0 to Array.length t.index - 1 do
    let s = t.index.(i) in
    if s <> 0 then place idx keys mask s t.keys.(i) (home (s lsr entry_bits) mask)
  done;
  t.index <- idx;
  t.keys <- keys

let rec find_handle idx mask d i =
  if Array.unsafe_get idx i land entry_mask = d then i
  else find_handle idx mask d ((i + 1) land mask)

(* The overflow slot of the entry [h], whose fingerprint is [fp]. *)
let slot_of t fp h =
  let mask = Array.length t.index - 1 in
  find_handle t.index mask (h + 1) (home fp mask)

(* Backward-shift deletion: close the hole at [hole] by pulling back each
   later slot of its probe run that may legally sit there — one whose
   home is not cyclically inside (hole, j]. The last hole takes the fill
   from the empty slot that ends the run. *)
let rec shift idx keys mask hole j =
  let j = (j + 1) land mask in
  let s = Array.unsafe_get idx j in
  if s = 0 then begin
    Array.unsafe_set idx hole 0;
    Array.unsafe_set keys hole (Array.unsafe_get keys j)
  end
  else if (j - home (s lsr entry_bits) mask) land mask >= (j - hole) land mask then begin
    Array.unsafe_set idx hole s;
    Array.unsafe_set keys hole (Array.unsafe_get keys j);
    shift idx keys mask j j
  end
  else shift idx keys mask hole j

(* File [rid] in the overflow; its fingerprint. *)
let spill t rid h =
  if (t.spilled + 1) * 4 > Array.length t.index * 3 then grow_index t rid;
  let mask = Array.length t.index - 1 in
  let fp = fingerprint rid in
  place t.index t.keys mask ((fp lsl entry_bits) lor (h + 1)) rid (home fp mask);
  t.spilled <- t.spilled + 1;
  fp

let unspill t fp h =
  let hole = slot_of t fp h in
  shift t.index t.keys (Array.length t.index - 1) hole hole;
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
    if t.wins == no_wins then begin
      t.c_addr <- Array.make clients Hovercraft_net.Addr.Router;
      t.c_port <- Array.make clients 0;
      t.wins <- Array.make clients [||]
    end;
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

(* File a new entry; its location for the tag. *)
let locate t (rid : R2p2.req_id) h =
  let c =
    if rid.id lsr id_bits <> 0 || h >= handle_mask then -1 else claim t rid
  in
  if c >= 0 && settle t c rid.id h then
    (((((rid.id land (window_cap - 1)) lsl client_bits) lor c) lsl 1) lor 1)
  else spill t rid h lsl 1

(* A window location's client slot, and the slot of its window that
   holds the entry. *)
let loc_client loc = (loc lsr 1) land (clients - 1)
let loc_slot w loc = (loc lsr (1 + client_bits)) land (Array.length w - 1)

let rid t h =
  let loc = loc_of (get t h f_tag) in
  if loc land 1 = 0 then t.keys.(slot_of t (loc lsr 1) h)
  else
    let c = loc_client loc in
    let w = t.wins.(c) in
    {
      R2p2.id = w.(loc_slot w loc) lsr handle_bits;
      src_addr = t.c_addr.(c);
      src_port = t.c_port.(c);
    }

(* --- expiry lists ------------------------------------------------------ *)

let set_prev t h p =
  let b = block t h and o = base h + f_links in
  b.(o) <- b.(o) land link_mask lor (p lsl link_bits)

let set_next t h n =
  let b = block t h and o = base h + f_links in
  b.(o) <- b.(o) land lnot link_mask lor n

let append t h l =
  let b = block t h and o = base h in
  let tail = t.tails.(l) in
  b.(o + f_tag) <- b.(o + f_tag) land lnot list_mask lor l;
  if tail < 0 then begin
    b.(o + f_links) <- (h lsl link_bits) lor h;
    t.heads.(l) <- h
  end
  else begin
    b.(o + f_links) <- (tail lsl link_bits) lor h;
    set_next t tail h
  end;
  t.tails.(l) <- h;
  t.counts.(l) <- t.counts.(l) + 1

(* An end that loses its neighbour links to itself. *)
let unlink t h =
  let b = block t h and o = base h in
  let l = b.(o + f_tag) land list_mask and w = b.(o + f_links) in
  let prev = w lsr link_bits and next = w land link_mask in
  if prev = h then t.heads.(l) <- (if next = h then nil else next)
  else set_next t prev (if next = h then prev else next);
  if next = h then t.tails.(l) <- (if prev = h then nil else prev)
  else set_prev t next (if prev = h then next else prev);
  t.counts.(l) <- t.counts.(l) - 1

let move t h ~list ~stamp =
  if h < 0 then invalid_arg "Rid_table.move: absent entry";
  unlink t h;
  set t h f_stamp stamp;
  append t h list

let rec iter_from t f h =
  (* Read the successor first: [f] may take its entry off the list. *)
  let next = get t h f_links land link_mask in
  f h;
  if next <> h then iter_from t f next

let iter_list t l f =
  let h = t.heads.(l) in
  if h >= 0 then iter_from t f h

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
  let values = Array.make chunk value and ints = Array.make (chunk * stride) 0 in
  if t.chunks = Array.length t.ints then begin
    t.values <- grown t.values values;
    t.fills <- grown t.fills value;
    t.ints <- grown t.ints ints
  end;
  t.values.(t.chunks) <- values;
  t.fills.(t.chunks) <- value;
  t.ints.(t.chunks) <- ints;
  t.chunks <- t.chunks + 1

let next_free t h =
  let n = get t h f_links in
  if n = h then nil else n

let push_free t h =
  set t h f_links (if t.free < 0 then h else t.free);
  t.free <- h

let alloc t value =
  if t.free >= 0 then begin
    let h = t.free in
    t.free <- next_free t h;
    h
  end
  else begin
    let h = t.fresh in
    if h = max_handles then invalid_arg "Rid_table.add: more than 2^31 entries";
    if h lsr chunk_bits = t.chunks then add_chunk t value;
    t.fresh <- h + 1;
    h
  end

let add t rid value ~stamp ~list =
  if t.order = max_order then invalid_arg "Rid_table.add: insertion order past 2^38";
  let h = alloc t value in
  let c = h lsr chunk_bits and i = h land chunk_mask in
  t.values.(c).(i) <- value;
  t.order <- t.order + 1;
  let b = t.ints.(c) and o = i * stride in
  b.(o + f_stamp) <- stamp;
  b.(o + f_tag) <- (t.order lsl order_shift) lor (locate t rid h lsl list_bits);
  t.size <- t.size + 1;
  append t h list;
  h

let remove_node t h =
  if h >= 0 then begin
    let c = h lsr chunk_bits and i = h land chunk_mask in
    let loc = loc_of t.ints.(c).((i * stride) + f_tag) in
    if loc land 1 = 0 then unspill t (loc lsr 1) h
    else begin
      let w = t.wins.(loc_client loc) in
      w.(loc_slot w loc) <- 0
    end;
    unlink t h;
    t.values.(c).(i) <- t.fills.(c);
    set t h f_tag free_tag;
    push_free t h;
    t.size <- t.size - 1
  end

let remove t rid = remove_node t (find t rid)

(* --- giving storage back ---------------------------------------------- *)

(* Move the entry in slot [h] to the free slot [dst]: its words, its
   neighbours' links and its window or overflow slot follow it. *)
let relocate t h dst =
  let b = block t h and o = base h in
  let tag = b.(o + f_tag) and links = b.(o + f_links) in
  let prev = links lsr link_bits and next = links land link_mask in
  let b' = block t dst and o' = base dst in
  b'.(o' + f_stamp) <- b.(o + f_stamp);
  b'.(o' + f_tag) <- tag;
  b'.(o' + f_links) <-
    ((if prev = h then dst else prev) lsl link_bits) lor if next = h then dst else next;
  t.values.(dst lsr chunk_bits).(dst land chunk_mask) <- value t h;
  let l = tag land list_mask in
  if prev = h then t.heads.(l) <- dst else set_next t prev dst;
  if next = h then t.tails.(l) <- dst else set_prev t next dst;
  let loc = loc_of tag in
  if loc land 1 = 0 then begin
    let i = slot_of t (loc lsr 1) h in
    t.index.(i) <- t.index.(i) land lnot entry_mask lor (dst + 1)
  end
  else
    let w = t.wins.(loc_client loc) in
    let i = loc_slot w loc in
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
    let rec low h =
      if h >= 0 then begin
        let next = next_free t h in
        if h < bound then push_free t h;
        low next
      end
    in
    let free = t.free in
    t.free <- nil;
    low free;
    for h = bound to t.fresh - 1 do
      if get t h f_tag <> free_tag then begin
        let dst = t.free in
        t.free <- next_free t dst;
        relocate t h dst
      end
    done;
    if keep = 0 then begin
      t.values <- [||];
      t.fills <- [||];
      t.ints <- [||]
    end
    else
      for c = keep to t.chunks - 1 do
        t.values.(c) <- [||];
        t.ints.(c) <- [||];
        t.fills.(c) <- t.fills.(0)
      done;
    t.chunks <- keep;
    t.fresh <- bound
  end

let reset t =
  t.index <- no_index;
  t.keys <- [||];
  t.spilled <- 0;
  t.c_addr <- no_addr;
  t.c_port <- no_port;
  t.wins <- no_wins;
  t.last <- -1;
  t.size <- 0;
  t.values <- [||];
  t.fills <- [||];
  t.ints <- [||];
  t.chunks <- 0;
  t.fresh <- 0;
  t.free <- nil;
  Array.fill t.heads 0 (Array.length t.heads) nil;
  Array.fill t.tails 0 (Array.length t.tails) nil;
  Array.fill t.counts 0 (Array.length t.counts) 0
