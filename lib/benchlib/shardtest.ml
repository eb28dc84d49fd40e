(* Differential harness for the sharded fleet.

   Nettest's sibling one level up: a fleet of composite connections
   (metadata through the coordinator, data ops routed to the owning
   shard by a cached placement map) drives a randomized workload while a
   seeded Faultsim plan injects message faults on every link — client,
   heartbeat and admin alike — plus targeted mid-request crashes of any
   chosen member ([Net_crash_of]), boundary crashes rotating over the
   whole fleet, and heartbeat-path partitions long enough to trigger
   real failovers (fence, handoff, redirect).

   The model, op generator, probes, verifies and op step are Oracle's.
   The fleet splits metadata from data, so one model describes it: the
   namespace lives in the coordinator's file system, and
   Oracle.cluster_driver turns a path into the real oid the coordinator
   holds before each data call.  No transactions ride the data plane, so
   there are no overlays.  An ambiguous outcome is settled by a durable
   probe that reads the coordinator namespace and, for chunk data,
   Oracle.cluster_reader: the authoritative shard copy
   ({!Cluster.peek_data}), which follows the handoff protocol's
   authority rules — the migration source while a bucket is in flight,
   the owner otherwise.  ESTALE and EBUSY refusals that survive the
   conn's own redirect budget, and ENOENT from a path another op already
   moved, are definitively-not-executed and skip cleanly. *)

module Rng = Simclock.Rng
module Clock = Simclock.Clock
module Errors = Invfs.Errors
module Client = Remote.Client
module Server = Remote.Server
module Cluster = Remote.Cluster

type config = {
  ops : int;
  clients : int;
  nshards : int;
  nbuckets : int;
  hb_interval : float;
  fault_interval : int; (* schedule a random net fault every N ops *)
  crash_interval : int; (* boundary crash every N ops, rotating members *)
  partition_interval : int; (* cut a shard's heartbeat path every N ops... *)
  partition_ops : int; (* ...healing it this many ops later *)
  max_file_bytes : int;
  max_dirs : int;
  trace : bool;
}

let default_config =
  {
    ops = 140;
    clients = 3;
    nshards = 3;
    nbuckets = 16;
    hb_interval = 0.3;
    fault_interval = 4;
    crash_interval = 50;
    partition_interval = 45;
    partition_ops = 18;
    max_file_bytes = 24 * 1024;
    max_dirs = 6;
    trace = false;
  }

type outcome = {
  seed : int64;
  ops_attempted : int;
  ops_applied : int;
  skips : int; (* definitively-not-executed refusals (busy, stale, locks) *)
  member_crashes : int; (* across the whole fleet *)
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
  mismatches : string list;
}

let outcome_to_string o =
  Printf.sprintf
    "seed=%Ld ops=%d/%d skips=%d crashes=%d fences=%d handoffs=%d migr=%d \
     drops=%d stale=%d redirects=%d replays=%d reconnects=%d lost=%d indet=%d \
     (landed %d) hb=%d faults=%d msgs=%d verifies=%d mismatches=%d"
    o.seed o.ops_applied o.ops_attempted o.skips o.member_crashes o.fence_events
    o.handoffs o.migrations o.drops_done o.stale_rejects o.redirects o.replays
    o.reconnects o.sessions_lost o.indeterminate o.landed o.heartbeats
    o.net_faults o.messages o.full_verifies (List.length o.mismatches)

(* ---------- harness state ---------- *)

type state = {
  cfg : config;
  cluster : Cluster.t;
  plan : Faultsim.t;
  o : Oracle.t;
  r : Oracle.cluster_conn Oracle.remote;
  mutable crash_rr : int; (* boundary crashes rotate over members *)
  mutable cut : (int * int) option; (* (shard, heal-at-op) active partition *)
}

let trace st fmt = Oracle.trace st.o fmt
let mismatch st fmt = Oracle.mismatch st.o fmt

(* The fleet's op weights.  No session ever begins a transaction. *)
let mix =
  Oracle.
    [
      (30, op_write); (44, op_create); (50, op_mkdir); (60, op_truncate); (68, op_unlink);
      (76, op_rename); (100, op_read_check);
    ]

(* ---------- faults ---------- *)

let random_fault st =
  match Rng.int st.o.rng 13 with
  | 0 | 1 | 2 -> Faultsim.Net_drop
  | 3 | 4 -> Faultsim.Net_duplicate
  | 5 | 6 -> Faultsim.Net_reorder
  | 7 | 8 -> Faultsim.Net_corrupt
  | 9 | 10 -> Faultsim.Net_partition (1 + Rng.int st.o.rng 3)
  (* targeted: crash a chosen member (coordinator included) on its next
     inbound message, mid-request *)
  | _ -> Faultsim.Net_crash_of (Rng.int st.o.rng (st.cfg.nshards + 1))

(* ---------- the run ---------- *)

let heal st =
  match st.cut with
  | Some (shard, _) ->
    trace st "== healing partition of shard %d" shard;
    Cluster.set_partitioned st.cluster ~shard false;
    st.cut <- None
  | None -> ()

(* Pump until failover handoffs and garbage drops run dry, half a
   heartbeat per turn, for at most 300 turns. *)
let drain clock cluster =
  let rec go k =
    Cluster.pump cluster;
    let s = Cluster.stats cluster in
    if (s.Cluster.handoffs_pending > 0 || s.Cluster.drops_pending > 0) && k < 300 then begin
      Clock.advance clock ~account:"shardtest.drain" (Cluster.hb_interval cluster /. 2.);
      go (k + 1)
    end
  in
  go 0

let settle st clock =
  drain clock st.cluster;
  let s = Cluster.stats st.cluster in
  if s.Cluster.handoffs_pending > 0 then
    mismatch st "converge: %d handoffs never completed" s.Cluster.handoffs_pending;
  if s.Cluster.drops_pending > 0 then
    mismatch st "converge: %d bucket drops never completed" s.Cluster.drops_pending

let run ?(config = default_config) ~seed () =
  let rng = Rng.create seed in
  let clock = Clock.create () in
  let net = Netsim.create ~clock Netsim.tcp_1993 in
  let plan = Faultsim.create () in
  let cluster =
    Cluster.create ~clock ~net ~rng:(Rng.split rng) ~nshards:config.nshards
      ~nbuckets:config.nbuckets ~hb_interval:config.hb_interval ()
  in
  (* server-to-server links join the same fault plan as client traffic *)
  List.iter (fun (tag, link) -> Faultsim.arm_link plan ~tag link) (Cluster.internal_links cluster);
  let mk_client id =
    let on_link tag link = Faultsim.arm_link plan ~tag link in
    let conn = Cluster.connect cluster ~on_link ~rng:(Rng.split rng) () in
    Oracle.sess id { Oracle.conn; pos = 0 }
  in
  let w =
    {
      Oracle.driver = Oracle.cluster_driver;
      read = Oracle.cluster_reader cluster;
      sessions = Array.init config.clients mk_client;
      max_file_bytes = config.max_file_bytes;
      max_dirs = config.max_dirs;
      write_segments = false;
      truncate_growth = 6000;
      mix_in_txn = [];
      mix_outside = mix;
    }
  in
  let st =
    {
      cfg = config;
      cluster;
      plan;
      o = Oracle.create ~rng ~trace:config.trace;
      r =
        Oracle.remote w
          ~committed:(Server.fs (Cluster.member_server cluster 0))
          ~refusals:Errors.[ EBUSY; ESTALE; ENOENT ];
      crash_rr = 0;
      cut = None;
    }
  in
  Cluster.set_before_recovery cluster (fun mid ->
      trace st "== MEMBER %d CRASH after op %d (in_flight=%b)" mid st.o.ops_attempted
        st.r.in_flight;
      (* recovery runs under a cleared schedule, as in Nettest *)
      Faultsim.clear_schedule st.plan);
  Cluster.set_after_recovery cluster (fun _mid -> Oracle.remote_crashed st.o st.r);
  for i = 0 to config.ops - 1 do
    (match st.cut with
    | Some (_, heal_at) when i >= heal_at -> heal st
    | _ -> ());
    if i > 0 && i mod config.fault_interval = 0 && Faultsim.net_pending st.plan < 4
    then begin
      let f = random_fault st in
      trace st "== scheduling %s" (Faultsim.net_action_to_string f);
      Faultsim.schedule_net_random st.plan st.o.rng ~within:(1 + Rng.int st.o.rng 8) f
    end;
    if i > 0 && i mod config.partition_interval = 0 && st.cut = None then begin
      let shard = 1 + Rng.int st.o.rng config.nshards in
      trace st "== cutting shard %d's heartbeat path" shard;
      Cluster.set_partitioned cluster ~shard true;
      st.cut <- Some (shard, i + config.partition_ops)
    end;
    if i > 0 && i mod config.crash_interval = 0 then begin
      let mid = st.crash_rr mod (config.nshards + 1) in
      st.crash_rr <- st.crash_rr + 1;
      trace st "== boundary crash of member %d" mid;
      Cluster.crash_member cluster mid
    end
    else begin
      Cluster.pump cluster;
      Oracle.remote_step st.o st.r
    end
  done;
  (* Converge: heal, stop injecting, drain redistribution, crash every
     member once more (the recovery path is part of the contract), then
     the full differential check. *)
  heal st;
  Faultsim.clear_schedule st.plan;
  settle st clock;
  for mid = 0 to config.nshards do
    Cluster.crash_member cluster mid
  done;
  Faultsim.disarm st.plan;
  settle st clock;
  Oracle.verify_remote st.o st.r ~phase:"final";
  let audit = Cluster.cross_shard_audit cluster in
  if not (Invfs.Fsck.is_shard_clean audit) then
    mismatch st "final %s" (Invfs.Fsck.shard_report_to_string audit);
  let stats = Cluster.stats cluster in
  let sum_members f =
    List.fold_left (fun a mid -> a + f (Cluster.member_server cluster mid)) 0
      (List.init (config.nshards + 1) Fun.id)
  in
  let conns = Array.map (fun (ss : _ Oracle.sess) -> ss.h.Oracle.conn) w.sessions in
  let sum_clients f =
    Array.fold_left
      (fun a c -> List.fold_left (fun a cl -> a + f cl) a (Cluster.conn_clients c))
      0 conns
  in
  let o = st.o in
  {
    seed;
    ops_attempted = o.ops_attempted;
    ops_applied = o.ops_applied;
    skips = o.lock_skips + o.io_faults;
    member_crashes = sum_members Server.crashes;
    fence_events = stats.Cluster.fence_events;
    handoffs = stats.Cluster.handoffs_completed;
    migrations = stats.Cluster.migrations;
    drops_done = stats.Cluster.drops_done;
    stale_rejects = stats.Cluster.stale_rejects;
    redirects = Array.fold_left (fun a c -> a + Cluster.redirects c) 0 conns;
    replays = sum_members Server.replays;
    reconnects = sum_clients Client.reconnects;
    sessions_lost = sum_clients Client.sessions_lost;
    indeterminate = o.indeterminate;
    landed = o.landed;
    heartbeats = stats.Cluster.heartbeats_seen;
    net_faults = List.length (Faultsim.net_events st.plan);
    messages = Netsim.messages net;
    full_verifies = o.full_verifies;
    mismatches = Oracle.mismatches o;
  }

(* ---------- bench entry points ----------

   One simulated clock serializes every machine's work, so parallelism
   is modeled, not observed: [Server.busy_s] meters each machine's share
   of simulated time, and saturated fleet throughput is ops over the
   bottleneck member's busy time — the classic makespan lower bound.
   Scaling shards divides the data-plane busy time across machines while
   the per-op cost stays constant, which is exactly the scale-out claim
   the smoke check pins (N=4 beating 2x the N=1 throughput). *)

(* A fault-free fleet with one client and [nfiles] files /f0, /f1, ...
   created through the coordinator, with their real oids. *)
let fleet ?hb_interval ~seed ~nshards ~nbuckets nfiles =
  let rng = Rng.create seed in
  let clock = Clock.create () in
  let net = Netsim.create ~clock Netsim.tcp_1993 in
  let cluster =
    Cluster.create ~clock ~net ~rng:(Rng.split rng) ~nshards ~nbuckets ?hb_interval ()
  in
  let conn = Cluster.connect cluster ~rng:(Rng.split rng) () in
  let coord = Cluster.coord conn in
  let oids =
    Array.init nfiles (fun i ->
        let path = Printf.sprintf "/f%d" i in
        Client.c_close coord (Client.c_creat coord path);
        (Client.c_stat coord path).Invfs.Fileatt.file)
  in
  (rng, clock, cluster, conn, oids)

type scale_point = {
  sp_shards : int;
  sp_ops : int;
  sp_wall_s : float; (* serialized simulated time for the whole workload *)
  sp_bottleneck_s : float; (* busiest member's share *)
  sp_throughput : float; (* modeled saturated ops/s: ops / bottleneck *)
}

let scaleout ?(ops = 200) ~seed ~nshards () =
  let nfiles = 4 * nshards in
  let rng, clock, cluster, conn, oids = fleet ~seed ~nshards ~nbuckets:32 nfiles in
  let payload = Bytes.to_string (Rng.bytes rng 8192) in
  let busy0 =
    Array.init (nshards + 1) (fun mid -> Server.busy_s (Cluster.member_server cluster mid))
  in
  let t0 = Clock.now clock in
  for k = 0 to ops - 1 do
    let oid = oids.(k mod nfiles) in
    ignore (Cluster.shard_write conn ~oid ~off:0L ~data:payload : int)
  done;
  let wall = Clock.now clock -. t0 in
  let bottleneck = ref 0. in
  for mid = 0 to nshards do
    let b = Server.busy_s (Cluster.member_server cluster mid) -. busy0.(mid) in
    if b > !bottleneck then bottleneck := b
  done;
  {
    sp_shards = nshards;
    sp_ops = ops;
    sp_wall_s = wall;
    sp_bottleneck_s = !bottleneck;
    sp_throughput = (if !bottleneck > 0. then float_of_int ops /. !bottleneck else 0.);
  }

type blackout = {
  bo_blackout_s : float; (* longest single-op stall after the cut *)
  bo_detect_s : float; (* configured detection horizon (dead_after) *)
  bo_fence_events : int;
  bo_stale_rejects : int;
  bo_migrations : int;
  bo_consistent : bool; (* every file readable and correct after failover *)
}

let failover_blackout ?(hb_interval = 0.3) ~seed () =
  let _, clock, cluster, conn, oids = fleet ~hb_interval ~seed ~nshards:3 ~nbuckets:16 12 in
  let expected = Hashtbl.create 16 in
  (* generation [k] of a file, written whole; returns the stall *)
  let write oid k =
    let t0 = Clock.now clock in
    let data = Printf.sprintf "gen%d of oid %Ld: %s" k oid (String.make 512 'x') in
    ignore (Cluster.shard_write conn ~oid ~off:0L ~data : int);
    ignore (Cluster.shard_truncate conn ~oid ~size:(Int64.of_int (String.length data)));
    Hashtbl.replace expected oid data;
    Clock.now clock -. t0
  in
  Array.iter (fun oid -> ignore (write oid 0 : float)) oids;
  (* cut one shard's heartbeat path and keep the workload going; the
     fence, failover and handoff happen underneath while every op's
     stall is measured *)
  Cluster.set_partitioned cluster ~shard:1 true;
  let worst = ref 0. in
  for k = 1 to 6 do
    Array.iter (fun oid -> worst := Float.max !worst (write oid k)) oids;
    Clock.advance clock ~account:"shardtest.blackout" (hb_interval /. 2.);
    Cluster.pump cluster
  done;
  Cluster.set_partitioned cluster ~shard:1 false;
  drain clock cluster;
  let consistent =
    Array.for_all
      (fun oid ->
        let expect = Hashtbl.find expected oid in
        let real =
          Cluster.shard_read conn ~oid ~off:0L ~len:(String.length expect + 64)
        in
        String.equal real expect && String.equal (Cluster.peek_data cluster ~oid) expect)
      oids
  in
  let s = Cluster.stats cluster in
  {
    bo_blackout_s = !worst;
    bo_detect_s = 4. *. hb_interval;
    bo_fence_events = s.Cluster.fence_events;
    bo_stale_rejects = s.Cluster.stale_rejects;
    bo_migrations = s.Cluster.migrations;
    bo_consistent = consistent;
  }
