(** The datacenter fabric: NIC ports plus a cut-through switch.

    Endpoints attach a port with a link rate and a receive handler. A sent
    packet pays, in order: serialization on the sender's link, the fabric
    latency (propagation + switching), and serialization on the receiver's
    link — so both the sender's TX bandwidth and the receiver's RX bandwidth
    are modelled as the contended resources the paper's bottleneck analysis
    (§2.1.2) is about.

    Sending to a {!Addr.Group} delivers a copy to every member except the
    sender, paying the sender's TX serialization only once: the switch
    replicates, exactly like commodity IP multicast (§3.2). *)

open Hovercraft_sim

type 'a packet = {
  src : Addr.t;
  dst : Addr.t;  (** As addressed by the sender; a group for multicast. *)
  bytes : int;  (** Application payload bytes (headers are added below). *)
  payload : 'a;
  sent_at : Timebase.t;
}

type 'a t
type 'a port

val create : Engine.t -> ?latency:Timebase.t -> ?fault_seed:int -> unit -> 'a t
(** [latency] is the one-way fabric traversal time (default 1 µs).
    [fault_seed] seeds the dedicated fault-injection RNG (probabilistic
    link drops); it is only consumed when a lossy fault is installed, so
    fault-free simulations are unaffected by it. *)

val attach :
  'a t -> addr:Addr.t -> rate_gbps:float -> handler:('a packet -> unit) -> 'a port
(** Attach an endpoint. [handler] fires when the last bit of a packet has
    been clocked off the receiver's link. Re-attaching an address replaces
    the previous port. *)

val join : 'a t -> group:int -> Addr.t -> unit
(** Add a member to a multicast group (idempotent). *)

val leave : 'a t -> group:int -> Addr.t -> unit

val send : 'a t -> 'a port -> dst:Addr.t -> bytes:int -> 'a -> unit
(** Transmit a packet. Unknown unicast destinations are silently dropped
    (counted on the sender), like a real fabric. *)

val set_down : 'a port -> bool -> unit
(** When down, deliveries to this port are discarded (link unplugged). *)

(** {1 Fault injection}

    Chaos experiments impair the fabric at run time. All impairments are
    evaluated per delivery (so a multicast can lose some copies and keep
    others) and are fully deterministic given [fault_seed] and the
    delivery order. *)

val set_link_fault :
  'a t -> src:Addr.t -> dst:Addr.t -> ?drop:float -> ?delay:Timebase.t -> unit -> unit
(** Impair the directed link [src -> dst]: each delivery is dropped with
    probability [drop] (default 0) and otherwise delayed by an extra
    [delay] (default 0) on top of the fabric latency. Setting both to
    zero clears the fault. Raises [Invalid_argument] for [drop] outside
    [0, 1] or a negative [delay]. *)

val clear_link_faults : 'a t -> unit
(** Remove every link fault. *)

val partition : 'a t -> Addr.t list list -> unit
(** Split the fabric into islands: two endpoints that are both named (in
    distinct islands) cannot exchange packets; endpoints not named by the
    partition (typically clients and middleboxes) still reach everyone.
    Replaces any previous partition. *)

val heal : 'a t -> unit
(** Remove the partition. Link faults installed with
    {!set_link_fault} are unaffected. *)

val partitioned : 'a t -> bool

val reachable : 'a t -> Addr.t -> Addr.t -> bool
(** Whether the current partition lets [a] send to [b]. *)

val injected_drops : 'a t -> int
(** Deliveries lost to probabilistic link faults. *)

val partition_drops : 'a t -> int
(** Deliveries suppressed because the endpoints were partitioned. *)

(** Per-port counters, all cumulative. *)

val tx_packets : 'a port -> int
val tx_wire_bytes : 'a port -> int
val rx_packets : 'a port -> int
val rx_wire_bytes : 'a port -> int
val dropped : 'a port -> int
(** Packets discarded because the destination was down or unknown
    (attributed to the sending port for unknown destinations and to the
    receiving port when it is down). *)

val ports : 'a t -> (Addr.t * 'a port) list
(** All attached ports, sorted by address (deterministic roll-ups). *)

val snapshot : 'a t -> Hovercraft_obs.Json.t
(** Per-link counters and queue depths for every port, keyed by address
    string. *)
