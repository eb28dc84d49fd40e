(* Differential network-fault harness.

   Crashtest's sibling for the client/server protocol: a pure in-memory
   oracle tracks what the file system's committed state must be while a
   fleet of Remote.Client sessions drives the same randomized workload
   through real Wire frames over Netsim.Link connections — with a seeded
   Faultsim plan dropping, duplicating, reordering, corrupting and
   partitioning messages, poisoning frames (server crash at receipt) and
   injecting device-level crashes mid-request.  After every server crash
   the system recovers and the real tree is compared byte-for-byte
   against the oracle; at the end the run must converge exactly.

   The one genuinely ambiguous RPC outcome — a committed mutation whose
   session died before the reply arrived — is resolved the honest way: a
   lock-free time-travel probe of the committed state (As_of reads take
   no locks and see only committed data) decides whether the op landed,
   and the oracle follows the probe.  Everything else is exact lockstep:
   retries, duplicates and replays must never make an op apply twice,
   and a client whose session dies mid-transaction must observe a clean
   abort with none of its writes visible.

   The model, the op generator (through Oracle.client_driver), the
   probes, the verifies and the op step are Oracle's; this module keeps
   the fault model, the crash handling and the run loop. *)

module Rng = Simclock.Rng
module Fs = Invfs.Fs
module Errors = Invfs.Errors
module Recovery = Invfs.Recovery
module Device = Pagestore.Device
module Client = Remote.Client
module Server = Remote.Server
module Link = Netsim.Link

type config = {
  ops : int;
  clients : int;
  fault_interval : int; (* schedule a random net fault every N ops *)
  crash_interval : int; (* boundary server crash every N ops *)
  device_crash : bool; (* also schedule device-level crashes mid-exec *)
  snapshot_interval : int;
  max_file_bytes : int;
  max_dirs : int;
  lease_s : float;
  trace : bool;
}

let default_config =
  {
    ops = 160;
    clients = 3;
    fault_interval = 4;
    crash_interval = 45;
    device_crash = true;
    snapshot_interval = 25;
    max_file_bytes = 32 * 1024;
    max_dirs = 8;
    lease_s = 120.;
    trace = false;
  }

type outcome = {
  seed : int64;
  ops_attempted : int;
  ops_applied : int;
  commits : int;
  aborts : int;
  lock_skips : int;
  io_faults : int;
  server_crashes : int;
  replays : int;
  closes_carried : int;
  begins_carried : int;
  leases_expired : int;
  sessions_lost : int;
  reconnects : int;
  indeterminate : int; (* ambiguous outcomes resolved by probe *)
  landed : int; (* ...of which the probe said "it committed" *)
  messages : int;
  bytes_sent : int;
  retries : int;
  timeouts : int;
  net_faults : int; (* fault-plan actions that actually fired *)
  time_travel_checks : int;
  full_verifies : int;
  mismatches : string list;
}

let outcome_to_string o =
  Printf.sprintf
    "seed=%Ld ops=%d/%d commits=%d aborts=%d lock_skips=%d io_faults=%d \
     crashes=%d replays=%d leases=%d lost=%d reconnects=%d indet=%d (landed %d) \
     msgs=%d bytes=%d retries=%d timeouts=%d faults=%d tt_checks=%d verifies=%d \
     mismatches=%d"
    o.seed o.ops_applied o.ops_attempted o.commits o.aborts o.lock_skips
    o.io_faults o.server_crashes o.replays o.leases_expired o.sessions_lost
    o.reconnects o.indeterminate o.landed o.messages o.bytes_sent o.retries
    o.timeouts o.net_faults o.time_travel_checks o.full_verifies
    (List.length o.mismatches)

(* ---------- harness state ---------- *)

type state = {
  db : Relstore.Db.t;
  fs : Fs.t;
  server : Server.t;
  plan : Faultsim.t;
  o : Oracle.t;
  r : Client.t Oracle.remote;
}

let trace st fmt = Oracle.trace st.o fmt
let mismatch st fmt = Oracle.mismatch st.o fmt

(* ---------- fault plan ---------- *)

let random_fault st =
  match Rng.int st.o.rng 12 with
  | 0 | 1 | 2 -> Faultsim.Net_drop
  | 3 | 4 -> Faultsim.Net_duplicate
  | 5 | 6 -> Faultsim.Net_reorder
  | 7 | 8 -> Faultsim.Net_corrupt
  | 9 | 10 -> Faultsim.Net_partition (1 + Rng.int st.o.rng 3)
  | _ -> Faultsim.Net_server_crash

(* ---------- crash / verification ---------- *)

let take_snapshot st =
  Oracle.take_snapshot st.o ~depth:4 (Relstore.Db.now st.db);
  (* Move time past the snapshot instant so no later commit can share its
     timestamp (As_of visibility uses <=). *)
  Simclock.Clock.advance (Relstore.Db.clock st.db) ~account:"nettest.mark" 1e-6

(* On any server crash — boundary, poisoned frame, or device-injected
   mid-request — the machine must recover fault-free, and the recovered
   tree must equal the oracle's committed state.  Every open transaction
   died with its session, so clients' overlays are dropped here; the
   clients themselves discover the death lazily, as ECONNRESET or a
   transparent reconnect, which is the point of the exercise.

   A crash in the middle of an op's RPC defers the verify until that
   op has settled ({!Oracle.remote_crashed}). *)
let on_server_crash st _server =
  trace st "== SERVER CRASH after op %d (in_flight=%b)" st.o.ops_attempted st.r.in_flight;
  Faultsim.clear_schedule st.plan;
  let rep = Recovery.crash_and_recover st.fs in
  if not (Recovery.is_clean rep) then
    mismatch st "recovery not clean: %s" (Recovery.report_to_string rep);
  (* every open transaction died with the server: drop the matching
     overlays now so the oracle's views stay in lockstep with what those
     clients will actually see once they discover the death.  The client
     whose RPC is in flight is left alone — its own exception handler
     resolves its outcome (by probe if ambiguous) and clears it. *)
  Array.iter
    (fun (cs : Client.t Oracle.sess) ->
      let is_current = match st.r.current with Some c -> c == cs | None -> false in
      (* a transaction that is still only a held Begin never reached the
         server: nothing ran in it, so the crash leaves it open *)
      if not (is_current || Client.begin_held cs.h) then begin
        if cs.in_txn then st.o.aborts <- st.o.aborts + 1;
        Oracle.clear_overlay cs;
        cs.pending <- None
      end)
    st.r.w.sessions;
  Oracle.remote_crashed st.o st.r

let run ?(config = default_config) ~seed () =
  let rng = Rng.create seed in
  let clock = Simclock.Clock.create () in
  let switch = Pagestore.Switch.create ~clock in
  let (_ : Device.t) =
    Pagestore.Switch.add_device switch ~name:"disk0" ~kind:Device.Magnetic_disk ()
  in
  let db = Relstore.Db.create ~switch ~clock () in
  let fs = Fs.make db () in
  let server = Server.create ~fs ~lease_s:config.lease_s () in
  let net = Netsim.create ~clock Netsim.tcp_1993 in
  let plan = Faultsim.create () in
  if config.device_crash then Faultsim.arm_switch plan switch;
  let mk_client id =
    let link = Link.create net in
    Faultsim.arm_link plan link;
    Oracle.sess id (Client.connect ~server ~link ~rng:(Rng.split rng) ())
  in
  let o = Oracle.create ~rng ~trace:config.trace in
  let st =
    {
      db;
      fs;
      server;
      plan;
      o;
      r =
        Oracle.remote ~committed:fs ~refusals:[]
          {
            Oracle.driver = Oracle.client_driver;
            read = Fs.read_whole_file;
            sessions = Array.init config.clients mk_client;
            max_file_bytes = config.max_file_bytes;
            max_dirs = config.max_dirs;
            write_segments = true;
            truncate_growth = 8000;
            mix_in_txn = Oracle.standard_mix_in_txn;
            mix_outside = Oracle.standard_mix_outside;
          };
    }
  in
  Server.set_on_crash server (fun s -> on_server_crash st s);
  for i = 0 to config.ops - 1 do
    if i > 0 && i mod config.fault_interval = 0 && Faultsim.net_pending st.plan < 4
    then begin
      let f = random_fault st in
      trace st "== scheduling %s" (Faultsim.net_action_to_string f);
      Faultsim.schedule_net_random st.plan rng ~within:(1 + Rng.int rng 8) f
    end;
    if
      config.device_crash && i > 0
      && i mod (3 * config.fault_interval) = 0
      && Faultsim.pending st.plan = 0 && Rng.int rng 4 = 0
    then
      (* a device-level crash fires inside Fs execution: the server dies
         mid-request, after the op may have partially executed *)
      Faultsim.schedule_random_crash st.plan rng ~within:20;
    if i > 0 && i mod config.crash_interval = 0 then Server.crash_now st.server
    else Oracle.remote_step o st.r;
    if i > 0 && i mod config.snapshot_interval = 0 then take_snapshot st
  done;
  (* Converge: stop injecting, let every client settle (aborting any open
     transaction), then a final boundary crash + full verification. *)
  Faultsim.clear_schedule st.plan;
  Array.iter (Oracle.abort_txn st.o st.r.w) st.r.w.sessions;
  Server.crash_now st.server;
  Faultsim.disarm st.plan;
  let net_faults = List.length (Faultsim.net_events st.plan) in
  let sum f =
    Array.fold_left (fun a (cs : Client.t Oracle.sess) -> a + f cs.h) 0 st.r.w.sessions
  in
  {
    seed;
    ops_attempted = o.ops_attempted;
    ops_applied = o.ops_applied;
    commits = o.commits;
    aborts = o.aborts;
    lock_skips = o.lock_skips;
    io_faults = o.io_faults;
    server_crashes = Server.crashes server;
    replays = Server.replays server;
    closes_carried = Server.closes_carried server;
    begins_carried = Server.begins_carried server;
    leases_expired = Server.leases_expired server;
    sessions_lost = sum Client.sessions_lost;
    reconnects = sum Client.reconnects;
    indeterminate = o.indeterminate;
    landed = o.landed;
    messages = Netsim.messages net;
    bytes_sent = Netsim.bytes_sent net;
    retries = Netsim.retries net;
    timeouts = Netsim.timeouts net;
    net_faults;
    time_travel_checks = o.time_travel_checks;
    full_verifies = o.full_verifies;
    mismatches = Oracle.mismatches o;
  }
