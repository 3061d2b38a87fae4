open Hovercraft_sim

type t =
  | Nop
  | Synth of {
      cost : Timebase.t;
      read_only : bool;
      req_bytes : int;
      rep_bytes : int;
    }
  | Kv of Kvstore.cmd
  | Merge of { chunk : Kvstore.image; completions : completion list }
  | Prune of { slots : int; drop : int list }

and result = Done | Kv_reply of Kvstore.reply

and completion = {
  c_rid : Hovercraft_r2p2.R2p2.req_id;
  c_result : result;
  c_at : Timebase.t;
}

(* Roughly a rid triple + result + timestamp on the wire. *)
let completion_wire_bytes = 40

type state = {
  kv : Kvstore.t;
  mutable applied : int;
  mutable rw_ops : int;
  mutable synth_digest : int;
}

let create_state () =
  { kv = Kvstore.create (); applied = 0; rw_ops = 0; synth_digest = 0 }

(* Replies that carry no data are shared: a completion record holding
   one owns no block. *)
let ok_reply = Kv_reply Kvstore.Ok
let absent_reply = Kv_reply (Kvstore.Value None)
let wrong_type_reply = Kv_reply Kvstore.Wrong_type

let kv_result : Kvstore.reply -> result = function
  | Ok -> ok_reply
  | Value None -> absent_reply
  | Wrong_type -> wrong_type_reply
  | (Value (Some _) | Values _ | Records _ | Count _) as reply -> Kv_reply reply

let apply state op =
  state.applied <- state.applied + 1;
  match op with
  | Nop -> (Done, 100)
  | Synth { cost; read_only; _ } ->
      (* Writes perturb a digest so replica divergence is detectable even
         for the synthetic service. The digest folds in the write ordinal
         (not the execution counter — read-only executions are per-replica,
         §3.5). *)
      if not read_only then begin
        state.rw_ops <- state.rw_ops + 1;
        state.synth_digest <- (state.synth_digest * 31) + state.rw_ops
      end;
      (Done, cost)
  | Kv cmd ->
      let reply = Kvstore.execute state.kv cmd in
      (kv_result reply, Kvstore.cost_ns cmd reply)
  | Merge { chunk; _ } ->
      (* The sub-range lands in the store wholesale; cost scales with the
         image (a memcpy-rate install, not per-command execution). The
         carried completion records are seeded by the SMR layer, which
         owns the completion table. *)
      Kvstore.merge state.kv chunk;
      (Done, 2_000 + (Kvstore.image_bytes chunk / 16))
  | Prune { slots; drop } ->
      let removed =
        Kvstore.prune state.kv ~keep:(fun k ->
            not (List.mem (Kvstore.slot_of_key ~slots k) drop))
      in
      (Done, 2_000 + (1_000 * removed))

let read_only = function
  | Nop -> true
  | Synth { read_only; _ } -> read_only
  | Kv cmd -> Kvstore.is_read_only cmd
  | Merge _ | Prune _ -> false

let key = function
  | Kv cmd -> Kvstore.key_of cmd
  | Nop | Synth _ | Merge _ | Prune _ -> None

(* The conflict relation for parallel apply: two operations commute unless
   their footprints intersect. Keyed store commands touch exactly their
   key (Insert/Scan touch the thread-prefixed range, which key_of already
   names); read-only synthetics and no-ops touch nothing; everything that
   mutates cross-key state — the synthetic service's shared digest, the
   migration bulk ops — touches the whole machine and must serialize
   against every thread. *)
type footprint = Fp_none | Fp_key of string | Fp_global

let footprint = function
  | Nop -> Fp_none
  | Synth { read_only; _ } -> if read_only then Fp_none else Fp_global
  | Kv cmd -> (
      match Kvstore.key_of cmd with Some k -> Fp_key k | None -> Fp_none)
  | Merge _ | Prune _ -> Fp_global

let request_bytes = function
  | Nop -> 8
  | Synth { req_bytes; _ } -> req_bytes
  | Kv cmd -> Kvstore.cmd_bytes cmd
  | Merge { completions; _ } ->
      (* The bulk image was pre-staged at the target group by the chunked
         snapshot transfer (Shard migration); the ordered entry carries
         only the handle and the completion records. *)
      64 + (completion_wire_bytes * List.length completions)
  | Prune { drop; _ } -> 24 + (8 * List.length drop)

let reply_bytes op result =
  match (op, result) with
  | Synth { rep_bytes; _ }, _ -> rep_bytes
  | _, Kv_reply r -> Kvstore.reply_bytes r
  | (Nop | Kv _ | Merge _ | Prune _), Done -> 8

let executed state = state.applied

(* --- snapshots --- *)

type image = {
  im_kv : Kvstore.image;
  im_applied : int;
  im_rw_ops : int;
  im_synth_digest : int;
}

let snapshot state =
  {
    im_kv = Kvstore.snapshot state.kv;
    im_applied = state.applied;
    im_rw_ops = state.rw_ops;
    im_synth_digest = state.synth_digest;
  }

let install state img =
  Kvstore.install state.kv img.im_kv;
  state.applied <- img.im_applied;
  state.rw_ops <- img.im_rw_ops;
  state.synth_digest <- img.im_synth_digest

let image_bytes img = 32 + Kvstore.image_bytes img.im_kv

let extract_kv state ~keep = Kvstore.extract state.kv ~keep

(* Deliberately excludes the execution counter: read-only operations run on
   a single replica (§3.5), so replicas agree on state, not on how many
   operations they executed. *)
let fingerprint state =
  Hashtbl.hash (state.synth_digest, Kvstore.fingerprint state.kv)

let pp fmt = function
  | Nop -> Format.pp_print_string fmt "nop"
  | Synth { cost; read_only; req_bytes; rep_bytes } ->
      Format.fprintf fmt "synth(cost=%a,%s,req=%dB,rep=%dB)" Timebase.pp cost
        (if read_only then "ro" else "rw")
        req_bytes rep_bytes
  | Kv _ -> Format.pp_print_string fmt "kv"
  | Merge { chunk; completions } ->
      Format.fprintf fmt "merge(%dB,%d recs)" (Kvstore.image_bytes chunk)
        (List.length completions)
  | Prune { drop; _ } -> Format.fprintf fmt "prune(%d slots)" (List.length drop)
