(* Differential vacuum-under-traffic harness.

   The same oracle discipline as Crashtest — a pure in-memory model of
   the committed state, a seeded random workload against the real
   Invfs.Fs — but the adversary here is the *incremental concurrent
   vacuum*: after every workload op the harness runs one budgeted
   Fs.vacuum_step in archive mode, so old versions migrate to the WORM
   jukebox tier continuously while the foreground traffic keeps
   mutating the very relations being vacuumed.

   What must hold, and is checked after every crash and at the end:
   - the recovered tree is byte-identical to the oracle (vacuum never
     reclaims a visible version);
   - every remembered snapshot instant still reads exactly what the
     oracle materialized at that instant — time travel works *through*
     the archive tier, because archived versions fault back in on
     As_of reads;
   - the Fsck audit is clean, including the archive-tier phase: every
     record on write-once storage has a committed inserter and a
     committed deleter (a live version on WORM is a vacuum bug);
   - O(1) snapshots (Fs.snapshot) and copy-on-write clones (Fs.clone)
     behave as plain copies: the oracle models a clone as a byte copy,
     and divergence in either direction after the clone must not leak
     through.

   Crashes land *mid-step* too: the fault plan schedules crashes at
   random device writes, which can fire inside a vacuum step's archive
   copy or its kill/compact transaction.  The two-transaction step
   protocol makes that safe — archive copies are forced durable before
   any kill, a torn step leaves only duplicates on the archive tier,
   and the As_of read path de-duplicates — so the differential check
   is exactly the proof the design claims. *)

module Rng = Simclock.Rng
module Fs = Invfs.Fs
module Errors = Invfs.Errors
module Recovery = Invfs.Recovery
module Fsck = Invfs.Fsck
module Device = Pagestore.Device

type config = {
  ops : int;
  sessions : int;
  vacuum_pages : int; (* budget per incremental step *)
  crash_interval : int;
  snapshot_interval : int;
  io_error_interval : int;
  max_file_bytes : int;
  max_dirs : int;
  trace : bool;
}

let default_config =
  {
    ops = 160;
    sessions = 3;
    vacuum_pages = 3;
    crash_interval = 30;
    snapshot_interval = 15;
    io_error_interval = 45;
    max_file_bytes = 32 * 1024;
    max_dirs = 8;
    trace = false;
  }

type outcome = {
  seed : int64;
  ops_attempted : int;
  ops_applied : int;
  crashes : int;
  injected_crashes : int;
  commits : int;
  aborts : int;
  lock_skips : int;
  io_faults : int;
  clones : int;
  snapshots : int;
  vacuum_steps : int;
  vacuum_skips : int; (* steps that yielded to a writer *)
  vacuum_scanned : int;
  vacuum_archived : int;
  vacuum_discarded : int;
  archived_checked : int; (* WORM-tier records audited by the last fsck *)
  time_travel_checks : int;
  full_verifies : int;
  mismatches : string list;
}

let outcome_to_string o =
  Printf.sprintf
    "seed=%Ld ops=%d/%d crashes=%d (%d injected) commits=%d aborts=%d \
     lock_skips=%d io_faults=%d clones=%d snaps=%d vac_steps=%d \
     vac_skips=%d scanned=%d archived=%d discarded=%d arch_audited=%d \
     tt_checks=%d verifies=%d mismatches=%d"
    o.seed o.ops_applied o.ops_attempted o.crashes o.injected_crashes o.commits
    o.aborts o.lock_skips o.io_faults o.clones o.snapshots o.vacuum_steps
    o.vacuum_skips o.vacuum_scanned o.vacuum_archived o.vacuum_discarded
    o.archived_checked o.time_travel_checks o.full_verifies
    (List.length o.mismatches)

(* ---------- harness state ---------- *)

type state = {
  cfg : config;
  fs : Fs.t;
  plan : Faultsim.t;
  o : Oracle.t;
  w : Fs.session Oracle.workload;
  clones : int ref;
  mutable snapshots : int;
  mutable vacuum_steps : int;
  mutable vacuum_skips : int;
  mutable vacuum_scanned : int;
  mutable vacuum_archived : int;
  mutable vacuum_discarded : int;
  mutable archived_checked : int;
}

let trace st fmt = Oracle.trace st.o fmt
let mismatch st fmt = Oracle.mismatch st.o fmt

(* The oracle models a clone as a plain byte copy of the committed
   contents at clone time — the real thing is O(1) copy-on-write over a
   version horizon, and the differential check is exactly that the
   difference is unobservable (including after writes to either side,
   truncation below the base, crashes, and vacuum of the base's table). *)
let op_clone clones (o : Oracle.t) w (ss : Fs.session Oracle.sess) =
  if ss.in_txn then Oracle.op_write o w ss (* Fs.clone refuses inside a txn *)
  else
    match Oracle.SM.bindings o.names with
    | [] -> Oracle.op_create o w ss
    | committed ->
      let src, src_oid = Oracle.pick o committed in
      let dst = Oracle.join (Oracle.pick_dir o ss) (Oracle.fresh_name o "c") in
      Oracle.trace o "s%d clone %s -> %s" ss.id src dst;
      let (_ : int64) = Fs.clone ss.h ~src ~dst in
      incr clones;
      let oid = Oracle.fresh_oid o in
      let data =
        Bytes.copy (Option.value ~default:(Bytes.create 0) (Oracle.OM.find_opt src_oid o.files))
      in
      { Oracle.no_updates with u_names = [ (dst, Some oid) ]; u_files = [ (oid, data) ] }

let run_audit st ~phase =
  match Fsck.audit st.fs with
  | audit ->
    st.archived_checked <- audit.Fsck.archived_checked;
    if not (Fsck.is_clean audit) then
      mismatch st "%s: audit not clean: %s" phase (Fsck.report_to_string audit)
  | exception Device.Crash_injected _ ->
    (* the audit is plain read traffic; a pending fault can land on it —
       the caller's fault schedule is already cleared on the crash path,
       so this only happens for audits outside recovery, and the run
       simply proceeds to the next boundary *)
    ()

(* A remembered instant comes from the real O(1) snapshot call: sync the
   pending commit group, tick the clock so no later commit shares the
   timestamp, return the horizon. *)
let take_snapshot st =
  let ts = Fs.snapshot st.fs in
  st.snapshots <- st.snapshots + 1;
  Oracle.take_snapshot st.o ~depth:8 ts

let do_crash st ~injected =
  let (_ : Recovery.report) = Oracle.crash_local st.o st.fs st.plan st.w.sessions ~injected in
  run_audit st ~phase:"post-crash";
  Faultsim.schedule_random_crash st.plan st.o.rng ~within:(30 + Rng.int st.o.rng 150)

(* One budgeted increment of the concurrent vacuum, interleaved at the
   op boundary.  A crash landing inside the step is the interesting
   case; a lock skip (a foreground writer holds the relation) is the
   designed yield, counted but harmless. *)
let vacuum_tick st =
  match Fs.vacuum_step st.fs ~pages:st.cfg.vacuum_pages ~mode:`Archive () with
  | None -> ()
  | Some (rel, stp) ->
    st.vacuum_steps <- st.vacuum_steps + 1;
    if stp.Relstore.Vacuum.s_skipped then st.vacuum_skips <- st.vacuum_skips + 1;
    st.vacuum_scanned <- st.vacuum_scanned + stp.Relstore.Vacuum.s_scanned;
    st.vacuum_archived <- st.vacuum_archived + stp.Relstore.Vacuum.s_archived;
    st.vacuum_discarded <- st.vacuum_discarded + stp.Relstore.Vacuum.s_discarded;
    trace st "vac %s: scanned=%d archived=%d discarded=%d skipped=%b" rel
      stp.Relstore.Vacuum.s_scanned stp.Relstore.Vacuum.s_archived
      stp.Relstore.Vacuum.s_discarded stp.Relstore.Vacuum.s_skipped
  | exception Device.Crash_injected _ -> do_crash st ~injected:true
  | exception Device.Io_fault _ -> st.o.io_faults <- st.o.io_faults + 1
  | exception Errors.Fs_error ((Errors.EAGAIN | Errors.EDEADLK), _) ->
    st.vacuum_skips <- st.vacuum_skips + 1
  | exception Errors.Fs_error (code, msg) ->
    mismatch st "vacuum step failed with %s: %s" (Errors.code_to_string code) msg

let run ?(config = default_config) ~seed () =
  let rng = Rng.create seed in
  let clock = Simclock.Clock.create () in
  let switch = Pagestore.Switch.create ~clock in
  let (_ : Device.t) =
    Pagestore.Switch.add_device switch ~name:"disk0" ~kind:Device.Magnetic_disk ()
  in
  (* The archive tier is a real device of the WORM kind, so tiering is
     physical: Db places every "_arch" relation here. *)
  let (_ : Device.t) =
    Pagestore.Switch.add_device switch ~name:"jukebox" ~kind:Device.Worm_jukebox ()
  in
  let db = Relstore.Db.create ~switch ~clock () in
  let fs = Fs.make db () in
  let plan = Faultsim.create () in
  Faultsim.arm_switch plan (Relstore.Db.switch db);
  Faultsim.arm_cache plan (Relstore.Db.cache db);
  let o = Oracle.create ~rng ~trace:config.trace in
  let clones = ref 0 in
  let op_clone = op_clone clones in
  let st =
    {
      cfg = config;
      fs;
      plan;
      o;
      w =
        {
          Oracle.driver = Oracle.local_driver;
          read = Fs.read_whole_file;
          sessions = Array.init config.sessions (fun id -> Oracle.sess id (Fs.new_session fs));
          max_file_bytes = config.max_file_bytes;
          max_dirs = config.max_dirs;
          write_segments = false;
          truncate_growth = 6000;
          mix_in_txn =
            Oracle.
              [
                (32, op_write); (42, op_create); (50, op_truncate); (56, op_unlink);
                (62, op_rename); (74, op_read_check); (90, op_commit); (100, op_abort);
              ];
          mix_outside =
            Oracle.
              [
                (24, op_write); (34, op_create); (40, op_mkdir); (48, op_truncate);
                (56, op_unlink); (63, op_rename); (73, op_clone); (90, op_read_check);
                (100, op_begin);
              ];
        };
      clones;
      snapshots = 0;
      vacuum_steps = 0;
      vacuum_skips = 0;
      vacuum_scanned = 0;
      vacuum_archived = 0;
      vacuum_discarded = 0;
      archived_checked = 0;
    }
  in
  Faultsim.schedule_random_crash plan rng ~within:60;
  for i = 0 to config.ops - 1 do
    if i > 0 && i mod config.io_error_interval = 0 then begin
      let io = if Rng.bool rng then Faultsim.Write else Faultsim.Read in
      Faultsim.schedule plan ~io ~after:(1 + Rng.int rng 30) Faultsim.Io_error
    end;
    if i > 0 && i mod config.crash_interval = 0 then do_crash st ~injected:false
    else Oracle.local_step st.o st.w ~crash:(fun () -> do_crash st ~injected:true);
    (* the tentpole interleave: a vacuum increment at every op boundary *)
    vacuum_tick st;
    if i > 0 && i mod config.snapshot_interval = 0 then take_snapshot st
  done;
  (* Finish with a crash, full verification, and the archive audit. *)
  do_crash st ~injected:false;
  Faultsim.disarm plan;
  {
    seed;
    ops_attempted = o.ops_attempted;
    ops_applied = o.ops_applied;
    crashes = o.crashes;
    injected_crashes = o.injected_crashes;
    commits = o.commits;
    aborts = o.aborts;
    lock_skips = o.lock_skips;
    io_faults = o.io_faults;
    clones = !clones;
    snapshots = st.snapshots;
    vacuum_steps = st.vacuum_steps;
    vacuum_skips = st.vacuum_skips;
    vacuum_scanned = st.vacuum_scanned;
    vacuum_archived = st.vacuum_archived;
    vacuum_discarded = st.vacuum_discarded;
    archived_checked = st.archived_checked;
    time_travel_checks = o.time_travel_checks;
    full_verifies = o.full_verifies;
    mismatches = Oracle.mismatches o;
  }
