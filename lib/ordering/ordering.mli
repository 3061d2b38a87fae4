(** The ordering-backend choice (HovercRaft §3: ordering is separable
    from dissemination and execution).

    A backend is a pure state-transition machine in the [raft_role.ml]
    idiom: one [handle] entry point consumes an input (received message,
    timer, client command, application progress) and returns the actions
    the embedder must perform, in order. The embedder ([Hnode]) owns
    clocks, transport, randomized durations and the apply thread; the
    backend owns ordering and commit safety. Nothing in a backend reads
    the wall clock or a private RNG, so seeded chaos schedules replay
    byte-identically.

    Two backends exist: the Raft node ({!Hovercraft_raft.Node}) and
    {!Rabia}, leaderless randomized agreement (Rabia-style weak MVC over
    a common-case fast path) with no leader, no election timeout and
    hence no failover latency after a node kill. Their inputs, actions
    and messages differ, so there is no shared signature: [Hnode] holds
    the live one in its [ordering] variant ([Local | Raft | Rabia]) and
    matches on it wherever the two differ. *)

(** Which ordering backend a deployment runs. *)
type kind = Raft | Rabia

val kind_of_string : string -> (kind, string) result
val kind_name : kind -> string
val pp_kind : Format.formatter -> kind -> unit
