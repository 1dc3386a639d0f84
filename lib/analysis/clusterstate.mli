(** Abstract interpretation of the replicated name service.

    Consumes a {!Dsim.Nameserver.spec}, a {!Dsim.Chaos.config} fault
    schedule and a replicated write workload, and computes — without
    executing the simulator — three-valued verdicts about every
    execution of that schedule: per-write acceptance ([Must]/[May]/
    [Never]) with time bounds, Lamport-stamp intervals, and a
    may-propagation (happens-before) relation over writes widened
    across anti-entropy rounds — stored as one arrival vector per
    write (the earliest instant its op could reach each replica),
    computed once per interpretation.

    The soundness contract every {!Replpasses} error diagnostic rests
    on: a [Must] fact holds in {e every} execution of the schedule, a
    [Never]/impossibility fact rules a behaviour out of every
    execution. The propagation relation deliberately over-approximates
    (it ignores the pull-request leg and the random peer choice), so
    impossibility claims — and hence the error diagnostics — stay
    conservative. *)

type tri = Must | May | Never

val tri_to_string : tri -> string

type write = {
  index : int;  (** position in the workload *)
  time : float;  (** client issue time *)
  origin : int;  (** client = home replica id *)
  path : Naming.Name.t;  (** absolute (root-prepended) directory path *)
  atom : Naming.Name.atom;
  target : string option;
  nacked : bool;  (** statically Nack'd: unknown directory or leaf key *)
  applies : tri;  (** does the home replica accept and apply the op? *)
  accept : float * float;
      (** acceptance-instant bounds: for [Must] writes acceptance
          provably happens inside this interval; for [May] writes the
          upper bound is the latest possible acceptance *)
  stamp : int * int;  (** Lamport-stamp bounds at acceptance *)
  lost_in_crash : bool;
      (** provably lost: every retransmission lands inside the home
          replica's crash window and the retry budget exhausts in-run *)
}

type t = {
  config : Dsim.Chaos.config;
  spec : Dsim.Nameserver.spec;
  writes : write array;
  sides : (int list * int list) option;  (** partition sides *)
  partition : (float * float) option;  (** partition window *)
  crash : (int * float * float) option;  (** victim, crash window *)
  heal_at : float;
  samples : float array;  (** coherence sampling instants *)
  lat : float * float;  (** one-way latency bounds between distinct nodes *)
  sends : (float * float) array;  (** client attempt send offsets *)
  exhaust : float * float;  (** client retry-budget exhaustion offsets *)
  duration : float;
  down : (float * float) array;
      (** per-replica crash window, [(infinity, infinity)] for a
          replica that never crashes *)
  side : bool array;
      (** per-replica partition side (all [true] without a partition) *)
  arrivals : float array array;
      (** the arrival vectors: per write index, per replica, the
          earliest instant the write's op could be applied there
          ([infinity] when never in-run) — see {!arrival} *)
}

type env
(** What interpretation derives from the spec and the protocol
    parameters alone: the spec's directory and leaf-key tables, the
    latency and client send bounds, the sampling instants. Never
    mutated after construction, so one value can be shared across
    domains. *)

val env : Dsim.Chaos.config -> Dsim.Nameserver.spec -> env

val of_chaos :
  ?env:env ->
  ?workload:(float * int * Dsim.Nameserver.request) list ->
  Dsim.Chaos.config ->
  Dsim.Nameserver.spec ->
  t
(** Interprets the schedule, computing every write's arrival vector
    once. [workload] defaults to {!Dsim.Chaos.planned_writes} — the
    exact workload a chaos run of this config and spec would issue;
    non-write requests are ignored. [env] (default [env config spec])
    lets a caller interpreting many schedules of one spec skip
    rebuilding the invariants; it must come from a config with the
    same [call_timeout], [call_attempts], [sample_every] and
    [duration] (the schedules may differ in fault windows, seed and
    workload), or [Invalid_argument] is raised. *)

val writes : t -> write list
val applied : write -> bool
(** The op possibly exists: [applies <> Never] and not [nacked]. *)

val key : write -> string * string
(** The LWW key the write targets: (directory path, atom). *)

val same_side : t -> int -> int -> bool
(** Whether two replicas are on the same partition side (always true
    without a partition). *)

val transfer : t -> int -> int -> float -> float
(** [transfer t p d hp]: the earliest instant a pull response from
    replica [p], holding the op since [hp], could possibly be applied
    at replica [d] — served while both are up and not cut from each
    other, delivered while [d] is up. Monotone in [hp] and never below
    it ([transfer t p d x >= x]), which is what lets the arrival
    vectors settle each replica once. [infinity] stays [infinity]. *)

val arrival : t -> write -> int -> float option
(** [arrival t w d]: the earliest instant [w]'s op, applied at its
    origin at [fst w.accept], could possibly be applied at replica [d]
    in any execution, via any chain of anti-entropy pulls (the
    single-source fixpoint of {!transfer}); [None] when no execution
    delivers it within the run. [Some] answers are lower bounds
    (over-approximated possibility); [None] is an impossibility proof.
    A lookup into [t.arrivals]. *)

val must_concurrent : t -> write -> write -> bool
(** Provably concurrent: in no execution can either write's op have
    reached the other's origin before the other was accepted. *)

val stamps_may_tie : write -> write -> bool
(** The two stamp intervals overlap across distinct origins, so the
    LWW winner may be decided only by the origin-id tiebreak. *)

(** {2 The NG2xx error criteria}

    Shared by {!Replpasses} (one schedule) and {!Explore} (every
    candidate schedule): each list is a set of Must/Never facts about
    every execution of the schedule. *)

val races : t -> (write * write) list
(** Pairs of [Must] writes to one LWW key with different targets that
    are {!must_concurrent} — last-writer-wins provably discards one.
    In workload order ([i < j], by [i] then [j]). *)

val holes : t -> write list
(** Durability holes: writes [lost_in_crash], in workload order. *)

val cuts : t -> (write * int) list
(** Per replica [d], ascending, the first [Must] write (workload order)
    from another origin whose op can never reach [d] within the run. *)

type stale = {
  fault : [ `Partition | `Crash ];  (** the isolating fault window's kind *)
  window : float * float;  (** that window *)
  replica : int;  (** the provably stale replica *)
  write : write;  (** the update it cannot have seen *)
  sample : int;  (** index of the latest blocked sample *)
  time : float;  (** its sample instant *)
  count : int;  (** blocked samples inside the window *)
}

val stales : rounds:int -> t -> stale list
(** At most one fact per fault window (partition first, then crash)
    that heals in-run and lasts at least [rounds] anti-entropy
    periods: the first replica (ascending) and [Must] write (workload
    order) the window isolates from each other such that some sample
    strictly inside the window, after the write's acceptance, provably
    precedes the op's arrival there. *)

val reconverge_provable : ?rounds:int -> t -> bool
(** Whether reconvergence is provable within [rounds] (default 2)
    anti-entropy rounds after the last fault heals and the last write
    lands: only with two replicas (deterministic peer choice) and a
    loss-free network does any finite round budget constitute a
    proof. *)

val divergence_possible : t -> bool
(** Some execution could leave replicas diverged at least transiently:
    an op possibly exists and the schedule has faults. *)

val majority : t -> int
(** The write-quorum size under [`Leader_log]: [replicas/2 + 1]. *)

val no_quorum_windows : t -> (float * float) list
(** Maximal intervals of the run during which the fault schedule
    provably denies a write quorum under [`Leader_log] — in every
    execution, no connected side of the cluster has [majority] live
    replicas, so no transaction can commit and no leader election can
    complete. Quantifies over the statically-unknown fault targets
    (which replica the leader-kill takes down, which replica a
    [partition_leader] cut isolates): an interval is reported only when
    every choice denies quorum. Empty for [`Lww_ae] schedules. Windows
    are disjoint, sorted, and clipped to [0, duration]. *)

val outcome_unknown_horizon : t -> write -> (float * float) option
(** The no-quorum window that swallows the write's whole transaction
    budget, when one does: the write is issued inside the window and
    its [txn_deadline] expires before the window ends, so in every
    execution the client can observe neither [Committed] nor [Aborted]
    by its deadline and must report the outcome unknown. [None] for
    [`Lww_ae] schedules. *)
