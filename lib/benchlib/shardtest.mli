(** Differential harness for the sharded fleet ({!Remote.Cluster}).

    A client fleet drives the shared {!Oracle} workload through
    {!Oracle.cluster_driver} — metadata through the coordinator, chunk
    data routed to owning shards by cached placement — while a seeded
    fault plan injects message faults on every link (client, heartbeat
    and admin), mid-request crashes of any chosen member, boundary
    crashes rotating over the whole fleet, and heartbeat partitions long
    enough to drive real failovers (fence, handoff, redirect).  The
    model is {!Oracle}'s: the coordinator holds the namespace, and
    {!Oracle.cluster_reader} reads each file's authoritative shard copy.
    After every recovery and once more after convergence, the namespace
    and every file's bytes are compared against it. *)

type config = {
  ops : int;
  clients : int;
  nshards : int;
  nbuckets : int;
  hb_interval : float;
  fault_interval : int;  (** schedule a random net fault every N ops *)
  crash_interval : int;  (** boundary crash every N ops, rotating members *)
  partition_interval : int;  (** cut a shard's heartbeat path every N ops... *)
  partition_ops : int;  (** ...healing it this many ops later *)
  max_file_bytes : int;
  max_dirs : int;
  trace : bool;
}

val default_config : config

type outcome = {
  seed : int64;
  ops_attempted : int;
  ops_applied : int;
  skips : int;  (** definitively-not-executed refusals (busy, stale, locks) *)
  member_crashes : int;  (** across the whole fleet *)
  fence_events : int;
  handoffs : int;
  migrations : int;
  drops_done : int;
  stale_rejects : int;
  redirects : int;
  replays : int;
  reconnects : int;
  sessions_lost : int;
  indeterminate : int;
  landed : int;
  heartbeats : int;
  net_faults : int;
  messages : int;
  full_verifies : int;
  mismatches : string list;  (** empty iff the run was oracle-equivalent *)
}

val outcome_to_string : outcome -> string
val run : ?config:config -> seed:int64 -> unit -> outcome

(** {2 Bench entry points}

    One simulated clock serializes every machine's work, so parallelism
    is modeled: {!Remote.Server.busy_s} meters each machine's share of
    simulated time, and saturated fleet throughput is ops over the
    bottleneck member's busy time. *)

type scale_point = {
  sp_shards : int;
  sp_ops : int;
  sp_wall_s : float;  (** serialized simulated time for the whole workload *)
  sp_bottleneck_s : float;  (** busiest member's share *)
  sp_throughput : float;  (** modeled saturated ops/s: ops / bottleneck *)
}

val scaleout : ?ops:int -> seed:int64 -> nshards:int -> unit -> scale_point
(** Fault-free fixed-payload write workload over [4 * nshards] files. *)

type blackout = {
  bo_blackout_s : float;  (** longest single-op stall after the cut *)
  bo_detect_s : float;  (** configured detection horizon ([dead_after]) *)
  bo_fence_events : int;
  bo_stale_rejects : int;
  bo_migrations : int;
  bo_consistent : bool;  (** every file readable and correct after failover *)
}

val failover_blackout : ?hb_interval:float -> seed:int64 -> unit -> blackout
(** Steady writes while one shard's heartbeat path is cut: the fence,
    failover and handoff happen underneath, and the longest single-op
    stall bounds the client-visible blackout. *)
