(** Adversarial schedule explorer: seeded bounded model checking over
    the cluster protocol's fault-schedule space.

    Where {!Replpasses} verifies one {e given} schedule, this module
    asks the paper's §6 question in reverse: what schedules {e can} a
    naming configuration produce? It enumerates fault schedules
    (partition/crash windows quantized to the protocol-relevant
    boundaries of {!Bounds} — anti-entropy ticks, retry horizons) and
    write interleavings up to configurable bounds, prunes the space with
    partial-order reduction (writes to independent names commute, so
    only same-site write groups are enumerated) and replica-symmetry
    reduction (replicas on the same partition side with the same crash
    fate are interchangeable), and evaluates every candidate through the
    {!Clusterstate} abstract interpreter — cheap Must/Never facts whose
    soundness contract makes each finding replayable by construction.
    Only frontier candidates are confirmed by an actual chaos replay.

    Each finding is shrunk by greedy delta-debugging (drop writes, then
    the crash window, then the partition window, while the claim
    persists) into a minimized {!Dsim.Chaos.schedule} witness that
    [namingctl chaos --schedule] replays verbatim. *)

type config = {
  base : Dsim.Chaos.config;
      (** protocol parameters of the explored cluster; the fault window
          and workload fields are overridden per candidate *)
  depth : int;  (** candidate fault-window start boundaries *)
  max_writes : int;  (** writes per candidate schedule *)
  budget : int;  (** candidate schedules enumerated at most *)
  seed : int;  (** seed stamped into every candidate schedule *)
  rounds : int;  (** staleness bound, in anti-entropy rounds *)
}

val default : config
(** {!Dsim.Chaos.default} made deterministic and adversary-friendly
    (no random drop/duplication, no baked-in fault windows, 2 client
    attempts so retry budgets exhaust in-run), [depth = 3],
    [max_writes = 3], [budget = 2048], [seed = 42], [rounds = 2]. *)

(** What a witness schedule claims about {e every} execution of
    itself — the replay-checkable counterpart of a Must/Never fact. *)
type claim =
  | Lost_update  (** LWW silently discards a concurrent write *)
  | Lost_client_write  (** a client write provably never survives *)
  | Unreachable  (** some replica provably never reconverges *)
  | Stale_at of int
      (** sample [k] provably observes diverged replicas *)

val claim_holds : claim -> Dsim.Chaos.result -> bool
(** Does a chaos replay exhibit the claimed failure? Under [`Lww_ae] —
    [Lost_update]: LWW losses observed or the run did not converge;
    [Lost_client_write]: a retry budget exhausted; [Unreachable]: the
    run did not converge; [Stale_at k]: sample [k] saw unequal version
    vectors. Under [`Leader_log] (the replay config's mode) the loss
    claims demand an actually observed lost update — leader
    serialization keeps that counter at zero, so the LWW race/hole
    frontier is discharged by its own replay and only convergence/
    staleness defeats survive. *)

(** The static fact backing a witness, in terms of the minimized
    schedule's writes. *)
type found =
  | Race of Clusterstate.write * Clusterstate.write
      (** provably concurrent updates of one name *)
  | Hole of Clusterstate.write
      (** every retransmission lands in the crash window *)
  | Cut of Clusterstate.write * int
      (** the write can never reach the replica *)
  | Stale of Clusterstate.stale
      (** a replica provably stale for a whole fault window *)

type witness = {
  code : string;  (** NG301, NG302 or NG303 *)
  claim : claim;
  found : found;
  schedule : Dsim.Chaos.schedule;  (** minimized, replayable *)
  unminimized : Dsim.Chaos.schedule;  (** as first synthesized *)
  shrink_trials : int;  (** delta-debugging evaluations spent *)
  replay : Dsim.Chaos.result;
      (** the confirming chaos replay of the minimized schedule *)
}

type stats = {
  enumerated : int;  (** candidate schedules drawn from the space *)
  interpreted : int;  (** abstract-interpreter evaluations *)
  pruned_por : int;
      (** schedules collapsed by partial-order reduction *)
  pruned_symmetry : int;
      (** schedules collapsed by site and replica symmetry *)
  replays : int;  (** concrete chaos replays *)
  exhausted : bool;  (** the whole bounded space was enumerated *)
}

type outcome = { witnesses : witness list; stats : stats }

val run : ?jobs:int -> ?config:config -> Dsim.Nameserver.spec -> outcome
(** Explores the schedule space of a cluster serving [spec]. At most
    one witness per claim kind is returned (the first found in
    enumeration order; for staleness, the blocked-sample maximizing
    one), each confirmed by replay — a witness whose minimized schedule
    fails to reproduce its claim is dropped. Under [`Lww_ae] the
    soundness contract makes dropping unreachable (the replay is
    defense in depth); with [base.mode = `Leader_log] dropping is the
    point — the statically-found LWW race/hole frontier replays against
    the leader tier and is discharged unless a commit is actually lost,
    so a leader-mode exploration reporting no loss witnesses is a
    replay-confirmed coherence claim. [jobs] fans candidate evaluation
    over the {!Naming.Pool} in enumeration order, so the outcome is
    identical at any job count. Probes for the confirming replays are
    the spec's directories and link paths, exactly as [namingctl chaos]
    derives them. *)
