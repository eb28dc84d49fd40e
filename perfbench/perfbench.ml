(* The repository benchmark.

     perfbench --workload paper_table3|zipf_mixed|versioned_overwrite
               --seed N --seconds S --trace 0|1

   With --trace 0 it measures the workload once and prints the
   end-to-end metrics.  With --trace 1 it measures it once untraced, then
   again with spans and the Obs histograms on, checks that every
   simulated figure of the two runs is identical, and prints the
   per-layer metrics.  The last line of standard output is one JSON
   object; any failed output check prints the reasons on standard error
   and exits 1 with no result.  See README.md in this directory. *)

module Clock = Simclock.Clock
module M = Obs.Metrics
module Bc = Pagestore.Bufcache

(* ---------- metric catalogue ---------- *)

let end_to_end =
  [
    ("setup_s", "s");
    ("p50_ms", "ms");
    ("p99_ms", "ms");
    ("busy_s", "s");
    ("space_amp", "ratio");
    ("host_cpu_s", "s");
    ("peak_heap_mb", "MB");
  ]

let table3_systems = [ Table3.Cs; Table3.Nfs; Table3.Sp ]

let per_layer =
  List.map (fun g -> (g, "s")) Accounts.groups
  @ [
      ("simclock.elapsed_s", "s");
      ("pagestore.cache_hit_ratio", "ratio");
      ("pagestore.cache_gets", "count");
      ("pagestore.readahead_useful_ratio", "ratio");
      ("pagestore.cache_misses", "count");
      ("pagestore.evictions", "count");
      ("pagestore.device_reads", "count");
      ("pagestore.device_writes", "count");
      ("pagestore.write_amp", "ratio");
      ("pagestore.worm_mb", "MB");
      ("index.height", "count");
      ("index.pages_per_data_mb", "pages/MB");
      ("relstore.heap_inserts", "count");
      ("relstore.heap_updates", "count");
      ("relstore.commits", "count");
      ("relstore.durable_commits", "count");
      ("relstore.commits_per_force", "ratio");
      ("relstore.lock_waits", "count");
      ("relstore.deadlocks", "count");
      ("relstore.txn_aborts", "count");
      ("relstore.vacuum_steps", "count");
      ("relstore.versions_archived", "count");
      ("relstore.vacuum_step_max_ms", "ms");
      ("remote.messages", "count");
      ("remote.wire_bytes_per_user_byte", "ratio");
      ("remote.server_requests", "count");
      ("remote.parks", "count");
      ("remote.park_timeouts", "count");
      ("remote.sheds", "count");
      ("remote.server_busy_share", "ratio");
      ("netsim.peak_link_depth", "count");
    ]
  @ List.map
      (fun c -> (Printf.sprintf "remote.%s.p99_ms" c, "ms"))
      [ "read"; "write"; "create"; "commit"; "asof_read"; "vacuum_step" ]
  @ [
      ("core.write.host_us", "us");
      ("core.write.alloc_growth", "ratio");
      ("host.alloc_gb", "GB");
      ("host.major_gcs", "count");
      ("host.trace_overhead", "ratio");
      ("latency.samples", "count");
      ("latency.beyond_p99", "count");
      ("failed_frac", "ratio");
      ("capacity_ops_s", "1/s");
      ("create_s", "s");
      ("create_sp_s", "s");
      ("read_seq_s", "s");
      ("read_rand_s", "s");
      ("write_seq_s", "s");
      ("write_rand_s", "s");
      ("byte_ms", "ms");
      ("nfsbaseline.create_s", "s");
    ]
  @ List.concat_map
      (fun k ->
        List.map
          (fun op ->
            (Printf.sprintf "paper.%s.%s_s" (Table3.kind_key k) (Table3.op_key op), "s"))
          Table3.ops)
      table3_systems

(* ---------- what a workload hands back ---------- *)

type outcome = {
  lat : Samples.t;  (** simulated seconds per operation; failures = infinity *)
  busy : float;  (** simulated seconds spent serving the measured operations *)
  space_amp : float;
  layer : (string * float) list;  (** simulated (deterministic) per-layer values *)
  host_layer : (string * float) list;  (** host-cost per-layer values *)
  attempted : int;
  failed : int;
  errors : string list;
  report : string list;  (** human-readable lines *)
  probes : Probe.t list;
}

(* Registry counters are process-wide: read deltas around a phase. *)
let counters =
  [
    ("relstore.heap_inserts", "heap.inserts");
    ("relstore.heap_updates", "heap.updates");
    ("relstore.commits", "txn.commit");
    ("relstore.durable_commits", "log.commit.durable");
    ("relstore.lock_waits", "lock.waits");
    ("relstore.deadlocks", "lock.deadlocks");
    ("relstore.txn_aborts", "txn.abort");
    ("relstore.vacuum_steps", "vacuum.steps");
    ("relstore.versions_archived", "vacuum.archived");
    ("remote.server_requests", "net.server.requests");
    ("remote.parks", "net.server.parks");
    ("remote.park_timeouts", "net.server.park_timeouts");
    ("remote.sheds", "net.server.sheds");
    (* every block stored to a device, charged or absorbed by the OS cache *)
    ("pagestore.device_writes", "device.poke");
  ]

let group_hist () = M.histogram "txn.commit.group_size"

type registry = { counts : (string * int) list; forces : int; forced : float }

let registry () =
  {
    counts = List.map (fun (_, c) -> (c, Option.value ~default:0 (M.read c))) counters;
    forces = M.hist_count (group_hist ());
    (* group sizes are fed to the histogram as n microseconds *)
    forced = Float.round (M.hist_sum (group_hist ()) *. 1e6);
  }

(* What the registry counted since [r0]. *)
let since r0 =
  let r1 = registry () in
  {
    counts = List.map (fun (c, v) -> (c, v - List.assoc c r0.counts)) r1.counts;
    forces = r1.forces - r0.forces;
    forced = r1.forced -. r0.forced;
  }

let add_registry a b =
  {
    counts = List.map (fun (c, v) -> (c, v + List.assoc c b.counts)) a.counts;
    forces = a.forces + b.forces;
    forced = a.forced +. b.forced;
  }

(* One simulated machine a phase runs on. *)
type machine = {
  clock : Clock.t;
  db : Relstore.Db.t option;
  net : Netsim.t option;
  server : Remote.Server.t option;
  links : Netsim.Link.t list;
}

(* What one machine did over a phase, read from its per-instance
   counters.  Taking the tally lets the machine itself be dropped. *)
type tally = {
  acct : Accounts.delta;
  gets : int;
  hits : int;
  misses : int;
  evictions : int;
  readaheads : int;
  readahead_hits : int;
  dev_reads : int;
  worm : int;
  messages : int;
  bytes : int;
  busy : float;
  peak_depth : int;
}

let devices db = Pagestore.Switch.devices (Relstore.Db.switch db)

let zero_tally acct =
  {
    acct;
    gets = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
    readaheads = 0;
    readahead_hits = 0;
    dev_reads = 0;
    worm = 0;
    messages = 0;
    bytes = 0;
    busy = 0.;
    peak_depth = 0;
  }

(* The machine's counters now, as a tally against an empty account. *)
let reading m acct =
  let t = zero_tally acct in
  let t =
    match m.db with
    | None -> t
    | Some db ->
      let s = Bc.stats (Relstore.Db.cache db) in
      let dev f = List.fold_left (fun acc d -> acc + f d) 0 (devices db) in
      {
        t with
        gets = s.Bc.s_gets;
        hits = s.Bc.s_hits;
        misses = s.Bc.s_misses;
        evictions = s.Bc.s_evictions;
        readaheads = s.Bc.s_readaheads;
        readahead_hits = s.Bc.s_readahead_hits;
        dev_reads = dev Pagestore.Device.reads;
        worm = dev Pagestore.Device.worm_written_blocks;
      }
  in
  let t =
    match m.net with
    | None -> t
    | Some n -> { t with messages = Netsim.messages n; bytes = Netsim.bytes_sent n }
  in
  let busy = match m.server with Some s -> Remote.Server.busy_s s | None -> 0. in
  {
    t with
    busy;
    peak_depth = List.fold_left (fun a l -> max a (Netsim.Link.peak_depth l)) 0 m.links;
  }

(* Start a phase on [m]; the returned function tallies what it did since. *)
let start m : unit -> tally =
  List.iter Netsim.Link.reset_peak_depth m.links;
  let mark = Accounts.mark m.clock in
  let r0 = reading m Accounts.zero in
  fun () ->
    let r1 = reading m (Accounts.since mark) in
    {
      r1 with
      gets = r1.gets - r0.gets;
      hits = r1.hits - r0.hits;
      misses = r1.misses - r0.misses;
      evictions = r1.evictions - r0.evictions;
      readaheads = r1.readaheads - r0.readaheads;
      readahead_hits = r1.readahead_hits - r0.readahead_hits;
      dev_reads = r1.dev_reads - r0.dev_reads;
      messages = r1.messages - r0.messages;
      bytes = r1.bytes - r0.bytes;
      busy = r1.busy -. r0.busy;
    }

let ratio a b = if b = 0. then 0. else a /. b
let fi = float_of_int

let pooled probes name =
  let all = Samples.create () in
  List.iter
    (fun p ->
      let s = Probe.sim_samples p name in
      for i = 0 to Samples.count s - 1 do
        Samples.add all s.Samples.a.(i)
      done)
    probes;
  all

(* Per-layer values over a phase, totalled over the machines it ran on.
   The clock accounts must close on every machine. *)
let layer_values ~what ~(reg : registry) ~user_written ~user_read ~probes tallies =
  let d = Accounts.sum (List.map (fun t -> t.acct) tallies) in
  let errors = List.concat_map (fun t -> Accounts.check ~what t.acct) tallies in
  let count c = List.assoc c reg.counts in
  let sum f = List.fold_left (fun acc t -> acc + f t) 0 tallies in
  let gets = sum (fun t -> t.gets) in
  let busy = List.fold_left (fun acc t -> acc +. t.busy) 0. tallies in
  let values =
    d.Accounts.by_group
    @ [ ("simclock.elapsed_s", d.Accounts.elapsed) ]
    @ List.map (fun (name, c) -> (name, fi (count c))) counters
    @ [
        ("relstore.commits_per_force", ratio reg.forced (fi reg.forces));
        ("pagestore.cache_hit_ratio", ratio (fi (sum (fun t -> t.hits))) (fi gets));
        ("pagestore.cache_gets", fi gets);
        ( "pagestore.readahead_useful_ratio",
          ratio (fi (sum (fun t -> t.readahead_hits))) (fi (sum (fun t -> t.readaheads))) );
        ("pagestore.cache_misses", fi (sum (fun t -> t.misses)));
        ("pagestore.evictions", fi (sum (fun t -> t.evictions)));
        ("pagestore.device_reads", fi (sum (fun t -> t.dev_reads)));
        ( "pagestore.write_amp",
          ratio (fi (count "device.poke" * Pagestore.Page.size)) (fi user_written) );
        ("pagestore.worm_mb", fi (sum (fun t -> t.worm) * Pagestore.Page.size) /. 1e6);
        ("remote.messages", fi (sum (fun t -> t.messages)));
        ( "remote.wire_bytes_per_user_byte",
          ratio (fi (sum (fun t -> t.bytes))) (fi (user_written + user_read)) );
        ("remote.server_busy_share", ratio busy d.Accounts.elapsed);
        ("netsim.peak_link_depth", fi (List.fold_left (fun a t -> max a t.peak_depth) 0 tallies));
      ]
    @ List.map
        (fun name ->
          (Printf.sprintf "remote.%s.p99_ms" name, 1e3 *. Samples.percentile (pooled probes name) 0.99))
        [ "read"; "write"; "create"; "commit"; "asof_read"; "vacuum_step" ]
  in
  (values, errors)

(* A workload: [setup ()] builds the deployment and returns the measured
   phase as a thunk, so set-up can be repeated and timed on its own. *)
type workload = unit -> unit -> outcome

(* ---------- paper_table3 ---------- *)

(* What one system's run leaves behind once the machine is dropped. *)
type t3 = {
  r : Table3.result;
  layer3 : (string * float) list;  (** per-layer values (client/server only) *)
  amp : float;
  errs : string list;
}

(* The 25 MB file's index and the disk it sits on, read after every
   figure of the run is taken. *)
let index_and_space (s : Table3.sys) (r : Table3.result) =
  let db = Option.get s.db and fs = Option.get s.fs in
  let dev name = Pagestore.Switch.find (Relstore.Db.switch db) name in
  let amp =
    ratio
      (fi (Pagestore.Device.used_blocks (dev "disk0") * Pagestore.Page.size))
      (fi (Bytes.length r.model))
  in
  let att = Invfs.Fs.stat (Invfs.Fs.new_session fs) Table3.path in
  match Invfs.Fs.file_handle fs ~oid:att.Invfs.Fileatt.file with
  | None -> ([], amp)
  | Some inv ->
    let pages =
      Pagestore.Device.nblocks (dev (Invfs.Inv_file.device_name inv)) (Invfs.Inv_file.index_segid inv)
    in
    ( [
        ("index.height", fi (Index.Btree.height (Invfs.Inv_file.index inv)));
        ("index.pages_per_data_mb", fi pages /. fi Table3.file_mb);
      ],
      amp )

(* Simulated time of the paper's timed tests on one system: the create,
   the six 1 MB tests and the eight byte ops.  The untimed flushes and
   the extra byte trials are left out. *)
let table3_time (r : Table3.result) =
  List.fold_left
    (fun acc (op, v) ->
      match op with Table3.Read_byte | Table3.Write_byte -> acc | _ -> acc +. v)
    0. r.cells
  +. List.fold_left ( +. ) 0. r.byte_ops

let paper_table3 ~traced ~seed : workload =
  fun () ->
    let probes = List.map (fun k -> (k, Probe.create ~traced)) table3_systems in
    (* each machine is dropped as soon as its run is summarised *)
    let systems =
      Array.of_list (List.map (fun (k, p) -> Some (k, Table3.build p k)) probes)
    in
    fun () ->
      let one i =
        let k, (s : Table3.sys) = Option.get systems.(i) in
        systems.(i) <- None;
        let reg0 = registry () in
        let stop =
          start { clock = s.clock; db = s.db; net = s.net; server = s.server; links = s.links }
        in
        let byte_trials = if k = Table3.Cs then 1000 else 0 in
        let r = Table3.run ~byte_trials ~seed s in
        let reg = since reg0 and tally = stop () in
        let what = "paper_table3 " ^ Table3.kind_key k in
        let layer3, errs =
          if k = Table3.Cs then
            layer_values ~what ~reg ~user_written:r.user_bytes_written
              ~user_read:r.user_bytes_read ~probes:[ List.assoc k probes ] [ tally ]
          else ([], Accounts.check ~what tally.acct)
        in
        let index, amp =
          if k = Table3.Cs then index_and_space s r else ([], 0.)
        in
        (k, { r; layer3 = layer3 @ index; amp; errs = errs @ r.mismatches @ Table3.verify_read_back s r })
      in
      let results = List.init (Array.length systems) one in
      let cs = List.assoc Table3.Cs results and sp = List.assoc Table3.Sp results in
      let cell k op = List.assoc op (List.assoc k results).r.cells in
      let cells =
        List.concat_map
          (fun k ->
            List.map
              (fun op ->
                (Printf.sprintf "paper.%s.%s_s" (Table3.kind_key k) (Table3.op_key op), cell k op))
              Table3.ops)
          table3_systems
      in
      (* host cost of the single-process create, chunk write by chunk write *)
      let per_mb = Table3.mb / Invfs.Chunk.capacity in
      let w = sp.r.write_minor_words in
      let mean_words i0 =
        let t = ref 0. in
        for i = i0 to i0 + per_mb - 1 do
          t := !t +. w.(i)
        done;
        !t /. fi per_mb
      in
      let byte_ms =
        1e3 *. List.fold_left ( +. ) 0. cs.r.byte_ops /. fi (List.length cs.r.byte_ops)
      in
      let lat = cs.r.byte_latency in
      {
        lat;
        busy = table3_time cs.r +. table3_time sp.r;
        space_amp = cs.amp;
        layer =
          cs.layer3 @ cells
          @ [
              ("create_s", cell Table3.Cs Table3.Create);
              ("create_sp_s", cell Table3.Sp Table3.Create);
              ("read_seq_s", cell Table3.Cs Table3.Read_seq);
              ("read_rand_s", cell Table3.Cs Table3.Read_rand);
              ("write_seq_s", cell Table3.Cs Table3.Write_seq);
              ("write_rand_s", cell Table3.Cs Table3.Write_rand);
              ("byte_ms", byte_ms);
              ("nfsbaseline.create_s", cell Table3.Nfs Table3.Create);
            ];
        host_layer =
          [
            ("core.write.host_us", 1e6 *. Samples.median_of (Array.to_list sp.r.write_host_s));
            ("core.write.alloc_growth", ratio (mean_words (Array.length w - per_mb)) (mean_words 0));
          ];
        attempted = Samples.count lat;
        failed = 0;
        errors = List.concat_map (fun (_, x) -> x.errs) results;
        report =
          List.map
            (fun op ->
              Printf.sprintf "  %-13s inv_cs %9.4f s  nfs %9.4f s  inv_sp %9.4f s"
                (Table3.op_key op) (cell Table3.Cs op) (cell Table3.Nfs op) (cell Table3.Sp op))
            Table3.ops;
        probes = List.map snd probes;
      }

(* ---------- the open-loop workloads ---------- *)

let level_line name (l : Openloop.level) =
  let p q = 1e3 *. Samples.percentile l.lat q in
  Printf.sprintf
    "  %-9s rate %8.3f/s  ops %d  failed %d  retries %d  p50 %.1f ms  p99 %.1f ms  offered %.3f/s  achieved %.3f/s"
    name l.rate l.ops l.failed l.retries (p 0.5) (p 0.99) l.offered l.achieved

(* The measured level runs on [replicas] independent deployments: the
   one set-up built, then fresh ones with derived seeds.  Latencies are
   pooled and per-layer values totalled over the replicas, so the tail
   rests on more samples without one deployment's history growing
   longer. *)
type measured = {
  levels : Openloop.level list;
  lat : Samples.t;
  failed : int;
  amp : float;  (** mean space amplification at the end *)
  values : (string * float) list;
  errs : string list;
  mprobes : Probe.t list;
}

let replica_seed seed i = if i = 0 then seed else Int64.add (Int64.mul seed 7919L) (Int64.of_int i)

let machine_of (env : Openloop.env) =
  {
    clock = env.clock;
    db = Some env.db;
    net = Some env.net;
    server = Some env.server;
    links = Array.to_list env.links;
  }

let space_amp_of env = ratio (fi (Openloop.disk0_bytes env)) (fi (Openloop.live_bytes env))

(* One replica's results; its deployment is dropped once they are read. *)
type replica = {
  level : Openloop.level;
  tally : tally;
  reg : registry;
  written : int;
  read : int;
  ramp : float;
  rerrs : string list;
  rprobe : Probe.t;
}

let measure_replicas ~what ~traced (spec : Openloop.spec) (env0 : Openloop.env) ~seed =
  let runs =
    List.init spec.replicas (fun i ->
        let seed = replica_seed seed i in
        let env =
          if i = 0 then env0
          else begin
            let e = Openloop.setup spec ~probe:(Probe.create ~traced) ~seed in
            Probe.clear_samples e.probe;
            e
          end
        in
        let r0 = registry () and stop = start (machine_of env) in
        let level = Openloop.run_level env ~seed ~rate:spec.rate ~ops:spec.ops in
        let reg = since r0 and tally = stop () in
        Openloop.verify_tree env;
        {
          level;
          tally;
          reg;
          written = env.written;
          read = env.read;
          ramp = space_amp_of env;
          rerrs = env.errors;
          rprobe = env.probe;
        })
  in
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 runs in
  let probes = List.map (fun r -> r.rprobe) runs in
  let values, errors =
    layer_values ~what
      ~reg:
        (match List.map (fun r -> r.reg) runs with
        | r :: rest -> List.fold_left add_registry r rest
        | [] -> registry ())
      ~user_written:(sum (fun r -> r.written))
      ~user_read:(sum (fun r -> r.read))
      ~probes
      (List.map (fun r -> r.tally) runs)
  in
  let levels = List.map (fun r -> r.level) runs in
  let lat = Samples.create () in
  List.iter
    (fun (l : Openloop.level) ->
      for i = 0 to Samples.count l.lat - 1 do
        Samples.add lat l.lat.Samples.a.(i)
      done)
    levels;
  {
    levels;
    lat;
    failed = sum (fun r -> r.level.failed);
    amp = List.fold_left (fun acc r -> acc +. r.ramp) 0. runs /. fi spec.replicas;
    values;
    errs = errors @ List.concat_map (fun r -> r.rerrs) runs;
    mprobes = probes;
  }

(* The SLO a rate must meet to count toward capacity: p99 within 1 s with
   failures ranked above every success, and no growing backlog. *)
let slo_s = 1.0

let passes (l : Openloop.level) =
  Samples.percentile l.lat 0.99 <= slo_s && l.achieved >= 0.95 *. l.offered

(* Operations per rate-search level: enough for ten beyond the p99. *)
let search_ops = 1000

(* The highest offered rate that meets the SLO, to within 2%.  Every rate
   runs on a fresh deployment with the same schedule, stretched or
   compressed in time.  The knee is bracketed by doubling (or halving)
   from the reference rate, then bisected geometrically. *)
let rate_search ~traced spec ~seed ~ref_rate ~known =
  let memo = Hashtbl.create 16 and runs = ref [] in
  Option.iter (fun (r, l) -> Hashtbl.replace memo r (passes l)) known;
  let ok r =
    match Hashtbl.find_opt memo r with
    | Some v -> v
    | None ->
      let p = Probe.create ~traced in
      let e = Openloop.setup spec ~probe:p ~seed in
      let l = Openloop.run_level e ~seed ~rate:r ~ops:search_ops in
      Openloop.verify_tree e;
      runs := (e.errors, e.probe, l) :: !runs;
      let v = passes l in
      Hashtbl.replace memo r v;
      v
  in
  let bisect lo hi =
    let lo = ref lo and hi = ref hi in
    while !hi /. !lo > 1.02 do
      let mid = sqrt (!lo *. !hi) in
      if ok mid then lo := mid else hi := mid
    done;
    !lo
  in
  let capacity =
    if ok ref_rate then begin
      let lo = ref ref_rate in
      while ok (2. *. !lo) && !lo < 1024. do
        lo := 2. *. !lo
      done;
      bisect !lo (2. *. !lo)
    end
    else begin
      let hi = ref ref_rate in
      while (not (ok (!hi /. 2.))) && !hi > 0.2 do
        hi := !hi /. 2.
      done;
      if ok (!hi /. 2.) then bisect (!hi /. 2.) !hi else 0.
    end
  in
  (capacity, List.rev !runs)

let open_loop ~what ~traced (spec : Openloop.spec) ~seed : workload =
  fun () ->
  let probe = Probe.create ~traced in
  let env = Openloop.setup spec ~probe ~seed in
  Probe.clear_samples probe;
  fun () ->
    let m = measure_replicas ~what ~traced spec env ~seed in
    let capacity, searched =
      if not spec.capacity_search then (0., [])
      else
        (* the first replica is the search's level at the reference rate
           when it is the same size *)
        rate_search ~traced spec ~seed ~ref_rate:spec.rate
          ~known:(if spec.ops = search_ops then Some (spec.rate, List.hd m.levels) else None)
    in
    let vmax = Samples.max_value (pooled m.mprobes "vacuum_step") in
    let attempted = spec.ops * spec.replicas in
    {
      lat = m.lat;
      (* elapsed less the open-loop slack between arrivals *)
      busy = List.assoc "simclock.elapsed_s" m.values -. List.assoc "bench.idle_s" m.values;
      space_amp = m.amp;
      layer =
        m.values
        @ [
            ("relstore.vacuum_step_max_ms", 1e3 *. vmax);
            ("capacity_ops_s", capacity);
            ("failed_frac", ratio (fi m.failed) (fi attempted));
          ];
      host_layer = [];
      attempted;
      failed = m.failed;
      errors = m.errs @ List.concat_map (fun (errs, _, _) -> errs) searched;
      report =
        List.map (level_line "measured") m.levels
        @ List.map (fun (_, _, l) -> level_line "search" l) searched
        @
        if spec.capacity_search then
          [
            Printf.sprintf "  capacity %.3f ops/s (p99 <= %.0f ms, achieved >= 95%% of offered)"
              capacity (1e3 *. slo_s);
          ]
        else [];
      probes = m.mprobes @ List.map (fun (_, p, _) -> p) searched;
    }

(* ---------- host measurement around one pass ---------- *)

type pass = {
  o : outcome;
  setup_s : float;
  cpu_s : float;
  wall_s : float;
  alloc_gb : float;
  major_gcs : int;
  top_heap_mb : float;
}

let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Set-up is repeated and its median reported; the last deployment built
   is the one measured.  A quick set-up is repeated more often, so its
   median rests on at least half a second of set-ups. *)
let min_setup_reps = 5
let max_setup_reps = 99
let min_setup_total_s = 0.5

let one_pass (w : workload) =
  let times = ref [] and measure = ref (fun () -> assert false) in
  let reps = ref 0 and total = ref 0. in
  while
    !reps < min_setup_reps || (!total < min_setup_total_s && !reps < max_setup_reps)
  do
    Gc.compact ();
    let t0 = Unix.gettimeofday () in
    measure := w ();
    let dt = Unix.gettimeofday () -. t0 in
    times := dt :: !times;
    total := !total +. dt;
    incr reps
  done;
  let words (g : Gc.stat) = g.minor_words +. g.major_words -. g.promoted_words in
  let g0 = Gc.quick_stat () and c0 = cpu () and w0 = Unix.gettimeofday () in
  let o = !measure () in
  let w1 = Unix.gettimeofday () and c1 = cpu () and g1 = Gc.quick_stat () in
  {
    o;
    setup_s = Samples.median_of !times;
    cpu_s = c1 -. c0;
    wall_s = w1 -. w0;
    alloc_gb = (words g1 -. words g0) *. fi (Sys.word_size / 8) /. 1e9;
    major_gcs = g1.major_collections - g0.major_collections;
    top_heap_mb = fi (g1.top_heap_words * (Sys.word_size / 8)) /. 1e6;
  }

(* ---------- output ---------- *)

(* A failed operation's latency is infinite for ranking; printed, it is
   the give-up bound times 100 — above every success, and finite. *)
let ms v = if v = infinity then 1e5 *. Openloop.give_up_s else 1e3 *. v

(* Every simulated figure of a pass: the traced run must reproduce these
   exactly. *)
let sim_figures p =
  [
    ("p50_ms", ms (Samples.percentile p.o.lat 0.5));
    ("p99_ms", ms (Samples.percentile p.o.lat 0.99));
    ("busy_s", p.o.busy);
    ("space_amp", p.o.space_amp);
    ("latency.samples", fi (Samples.count p.o.lat));
    ("latency.beyond_p99", fi (Samples.beyond p.o.lat 0.99));
  ]
  @ p.o.layer

let json_num v = Printf.sprintf "%.17g" v

let print_result ~attempted ~failed catalogue values =
  let body =
    String.concat ", "
      (List.map
         (fun (name, unit_) ->
           let v = Option.value ~default:0. (List.assoc_opt name values) in
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_num v) unit_)
         catalogue)
  in
  Printf.printf "{\"correct\": true, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    attempted failed body

let fail reasons =
  List.iter (fun r -> prerr_endline ("perfbench: " ^ r)) reasons;
  exit 1

let print_report ~workload ~seed ~seconds p =
  Printf.printf "perfbench %s seed %d (a fixed-size run; --seconds %d)\n" workload seed seconds;
  List.iter print_endline p.o.report;
  let line n v u = Printf.printf "  %-20s %14.4f %s\n" n v u in
  List.iter
    (fun (n, u) ->
      line n
        (match n with
        | "setup_s" -> p.setup_s
        | "host_cpu_s" -> p.cpu_s
        | "peak_heap_mb" -> p.top_heap_mb
        | _ -> List.assoc n (sim_figures p))
        u)
    end_to_end;
  Printf.printf "  %-20s %14d / %d ops, %d beyond p99\n" "failed" p.o.failed p.o.attempted
    (Samples.beyond p.o.lat 0.99);
  (* the workload's own headline figures, reported per layer *)
  List.iter
    (fun (n, u) -> Option.iter (fun v -> line n v u) (List.assoc_opt n p.o.layer))
    (List.filter
       (fun (n, _) ->
         List.mem n
           [ "create_s"; "create_sp_s"; "read_seq_s"; "read_rand_s"; "write_seq_s"; "write_rand_s"; "byte_ms"; "capacity_ops_s" ])
       per_layer)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let spans_dir = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " paper_table3 | zipf_mixed | versioned_overwrite");
      ("--seed", Arg.Set_int seed, " workload seed");
      ("--seconds", Arg.Set_int seconds, " the measuring time the run is sized for");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics; 1: traced run, per-layer metrics");
      ("--spans-dir", Arg.Set_string spans_dir, " traced run: write spans to this directory");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME --seed N --seconds S --trace 0|1";
  let seed64 = Int64.of_int !seed in
  let make traced =
    match !workload with
    | "paper_table3" -> paper_table3 ~traced ~seed:seed64
    | "zipf_mixed" ->
      open_loop ~what:"zipf_mixed" ~traced Openloop.zipf_mixed ~seed:seed64
    | "versioned_overwrite" ->
      open_loop ~what:"versioned_overwrite" ~traced Openloop.versioned_overwrite ~seed:seed64
    | w -> fail [ Printf.sprintf "unknown workload %S" w ]
  in
  let check p = if p.o.errors <> [] then fail p.o.errors in
  let plain = one_pass (make false) in
  check plain;
  if !trace = 0 then begin
    print_report ~workload:!workload ~seed:!seed ~seconds:!seconds plain;
    print_result ~attempted:plain.o.attempted ~failed:plain.o.failed end_to_end
      ([
         ("setup_s", plain.setup_s);
         ("host_cpu_s", plain.cpu_s);
         ("peak_heap_mb", plain.top_heap_mb);
       ]
      @ sim_figures plain)
  end
  else begin
    Obs.enable_all ();
    let traced = one_pass (make true) in
    Obs.disable_all ();
    check traced;
    let diffs =
      List.filter_map
        (fun ((n, v), (_, v')) ->
          if json_num v = json_num v' then None
          else Some (Printf.sprintf "traced run differs: %s = %s untraced, %s traced" n (json_num v) (json_num v')))
        (List.combine (sim_figures plain) (sim_figures traced))
    in
    if diffs <> [] then fail diffs;
    print_report ~workload:!workload ~seed:!seed ~seconds:!seconds plain;
    let spans = List.fold_left (fun acc p -> acc + Probe.span_count p) 0 traced.o.probes in
    if !spans_dir <> "" then begin
      let oc =
        open_out
          (Filename.concat !spans_dir (Printf.sprintf "spans-%s-%d.jsonl" !workload !seed))
      in
      List.iteri (fun machine p -> Probe.write_spans oc ~machine p) traced.o.probes;
      close_out oc
    end;
    Printf.printf "  traced: %d spans, host %.3f s vs %.3f s untraced\n" spans traced.wall_s
      plain.wall_s;
    print_result ~attempted:traced.o.attempted ~failed:traced.o.failed per_layer
      (sim_figures traced @ traced.o.host_layer
      @ [
          ("host.alloc_gb", plain.alloc_gb);
          ("host.major_gcs", fi plain.major_gcs);
          ("host.trace_overhead", ratio traced.wall_s plain.wall_s);
        ])
  end
