type 'a t = {
  mutable keys : int array;
  mutable seqs : int array;
  mutable vals : 'a array;
  mutable size : int;
}

let create ?(capacity = 256) () =
  let capacity = Int.max capacity 16 in
  {
    keys = Array.make capacity 0;
    seqs = Array.make capacity 0;
    vals = Array.make capacity (Obj.magic 0);
    size = 0;
  }

let length t = t.size
let is_empty t = t.size = 0

let grow t =
  let n = Array.length t.keys in
  let n' = n * 2 in
  let keys = Array.make n' 0 and seqs = Array.make n' 0 in
  let vals = Array.make n' t.vals.(0) in
  Array.blit t.keys 0 keys 0 n;
  Array.blit t.seqs 0 seqs 0 n;
  Array.blit t.vals 0 vals 0 n;
  t.keys <- keys;
  t.seqs <- seqs;
  t.vals <- vals

(* Both sifts move a hole instead of swapping: each level costs one
   parent/child comparison on the (key, seq) pair and one three-array
   move, and the element lands once, at the hole's final position. All
   indices stay below [t.size], so the unchecked accesses are in bounds. *)

let push t ~key ~seq v =
  if t.size = Array.length t.keys then grow t;
  let keys = t.keys and seqs = t.seqs and vals = t.vals in
  let i = ref t.size in
  t.size <- t.size + 1;
  let moving = ref true in
  while !moving && !i > 0 do
    let p = (!i - 1) lsr 1 in
    let pk = Array.unsafe_get keys p in
    if key < pk || (key = pk && seq < Array.unsafe_get seqs p) then begin
      Array.unsafe_set keys !i pk;
      Array.unsafe_set seqs !i (Array.unsafe_get seqs p);
      Array.unsafe_set vals !i (Array.unsafe_get vals p);
      i := p
    end
    else moving := false
  done;
  Array.unsafe_set keys !i key;
  Array.unsafe_set seqs !i seq;
  Array.unsafe_set vals !i v

let min_key t = if t.size = 0 then max_int else Array.unsafe_get t.keys 0

let pop_min t =
  if t.size = 0 then invalid_arg "Heap.pop_min: empty heap";
  let keys = t.keys and seqs = t.seqs and vals = t.vals in
  let top = Array.unsafe_get vals 0 in
  let n = t.size - 1 in
  t.size <- n;
  if n > 0 then begin
    (* Re-seat the last element: sift the root hole down to where it
       belongs. *)
    let key = Array.unsafe_get keys n and seq = Array.unsafe_get seqs n in
    let i = ref 0 in
    let moving = ref true in
    while !moving do
      let l = (2 * !i) + 1 in
      if l >= n then moving := false
      else begin
        let r = l + 1 in
        let c =
          if r < n then begin
            let lk = Array.unsafe_get keys l and rk = Array.unsafe_get keys r in
            if rk < lk
               || (rk = lk && Array.unsafe_get seqs r < Array.unsafe_get seqs l)
            then r
            else l
          end
          else l
        in
        let ck = Array.unsafe_get keys c in
        if ck < key || (ck = key && Array.unsafe_get seqs c < seq) then begin
          Array.unsafe_set keys !i ck;
          Array.unsafe_set seqs !i (Array.unsafe_get seqs c);
          Array.unsafe_set vals !i (Array.unsafe_get vals c);
          i := c
        end
        else moving := false
      end
    done;
    Array.unsafe_set keys !i key;
    Array.unsafe_set seqs !i seq;
    Array.unsafe_set vals !i (Array.unsafe_get vals n)
  end;
  (* Release the vacated slot so the GC can reclaim popped closures. *)
  Array.unsafe_set vals n (Obj.magic 0);
  top

let pop t =
  if t.size = 0 then None
  else begin
    let key = t.keys.(0) and seq = t.seqs.(0) in
    let v = pop_min t in
    Some (key, seq, v)
  end

let peek_key t = if t.size = 0 then None else Some t.keys.(0)

let clear t =
  for i = 0 to t.size - 1 do
    t.vals.(i) <- Obj.magic 0
  done;
  t.size <- 0
