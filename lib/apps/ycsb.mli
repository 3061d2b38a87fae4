(** YCSB workload generators, centered on workload E (§7.5).

    YCSB-E models threaded conversations: INSERT posts a 1 kB record (10
    fields of 100 bytes) to a thread, SCAN reads the most recent posts of a
    thread (at most 10 in the paper's configuration). Operations are 95%
    SCAN / 5% INSERT; thread popularity is zipfian. *)

(** {1 Keys and payloads}

    Every generator below builds its keys and values from these. A
    value's content depends only on its sequence number mod 26, so each
    generator builds the 26 strings once at [create] and hands them out
    shared; wire and snapshot sizes come from [String.length], so sharing
    changes no simulated byte. *)

val user_key : int -> string
(** [user_key i = Printf.sprintf "user%08d" i], with the digits filled
    directly for [0 <= i < 10^8]. *)

val thread_key : int -> string
(** [thread_key i = Printf.sprintf "thread%05d" i], with the digits filled
    directly for [0 <= i < 10^5]. *)

val rotations : int -> string array
(** [rotations len] is the 26 payloads of length [len]: string [r] has
    byte [j] = ['a' + (r + j) mod 26]. The value for sequence number
    [seq >= 0] is [(rotations len).(seq mod 26)]. *)

(** {1 Workload E} *)

type spec = {
  threads : int;  (** Number of conversation threads. *)
  scan_fraction : float;  (** Probability an operation is a SCAN. *)
  max_scan : int;  (** Maximum records returned by a SCAN. *)
  fields : int;  (** Fields per record. *)
  field_bytes : int;  (** Bytes per field value. *)
  theta : float;  (** Zipfian skew for thread selection. *)
}

val workload_e : spec
(** The paper's configuration: 95:5 SCAN:INSERT, 10×100-byte fields,
    max_scan 10, zipfian 0.99 over 1000 threads. *)

type t

val create : ?spec:spec -> seed:int -> unit -> t

val preload_ops : t -> int -> Op.t list
(** [preload_ops t n] returns [n] INSERTs that populate threads before
    measurement, so early SCANs have data to return. *)

val next : t -> Op.t
(** Draw the next operation of the workload. *)

val spec_of : t -> spec

(** {1 The core YCSB workloads}

    Workloads A/B/C over 1 kB records (read = fetch the record, update =
    overwrite one field), with zipfian key popularity — the standard mixes
    used to characterize how HovercRaft's gains depend on the read/write
    ratio: updates execute on every replica, reads only on the designated
    replier, so C scales ~N-fold while A is Amdahl-bound by its 50%
    writes. *)
module Kv : sig
  type t

  val workload_a : seed:int -> t
  (** 50% read / 50% update. *)

  val workload_b : seed:int -> t
  (** 95% read / 5% update. *)

  val workload_c : seed:int -> t
  (** 100% read. *)

  val create :
    read_fraction:float -> ?records:int -> ?theta:float -> seed:int -> unit -> t

  val preload_ops : t -> Op.t list
  (** One insert per record so reads always hit. *)

  val next : t -> Op.t
end
