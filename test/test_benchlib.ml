(* The benchmark harness itself: system configurations behave, the
   workload produces sane results, the reports hold the paper's shape.
   A small (2 MB) file keeps this fast; shape assertions are the point. *)

module W = Benchlib.Workload
module S = Benchlib.Systems
module R = Benchlib.Report

let mb = 2

let run_cached =
  let memo = Hashtbl.create 4 in
  fun name mk ->
    match Hashtbl.find_opt memo name with
    | Some r -> r
    | None ->
      let r = W.run ~file_mb:mb (mk ()) in
      Hashtbl.replace memo name r;
      r

let inv_cs () = run_cached "cs" (fun () -> S.inversion_client_server ())
let nfs () = run_cached "nfs" (fun () -> S.ultrix_nfs ())
let inv_sp () = run_cached "sp" (fun () -> S.inversion_single_process ())

let test_all_ops_present () =
  let r = inv_sp () in
  List.iter
    (fun op ->
      let t = W.find r op in
      if t <= 0. then Alcotest.failf "%s has non-positive time %f" (W.op_label op) t)
    W.all_ops

let test_deterministic () =
  let a = W.run ~file_mb:mb (S.inversion_single_process ()) in
  let b = W.run ~file_mb:mb (S.inversion_single_process ()) in
  List.iter
    (fun op ->
      Alcotest.(check (float 1e-9)) (W.op_label op) (W.find a op) (W.find b op))
    W.all_ops

let test_file_contents_survive_workload () =
  (* the workload's own reads must return what its writes stored: run a
     verification read through the same system *)
  let sys = S.inversion_single_process () in
  let r = W.run ~file_mb:mb sys in
  ignore r;
  let f = sys.S.open_file "/bench.dat" in
  let n = sys.S.read f ~off:0L ~len:4096 in
  Alcotest.(check int) "file still readable" 4096 n

let test_shape_nfs_wins_create () =
  Alcotest.(check bool) "create ordering" true
    (W.find (nfs ()) W.Create_file < W.find (inv_sp ()) W.Create_file
    && W.find (inv_sp ()) W.Create_file < W.find (inv_cs ()) W.Create_file)

let test_shape_single_process_fastest_reads () =
  List.iter
    (fun op ->
      Alcotest.(check bool) (W.op_label op) true
        (W.find (inv_sp ()) op < W.find (nfs ()) op
        && W.find (inv_sp ()) op < W.find (inv_cs ()) op))
    [ W.Read_1mb_single; W.Read_1mb_seq ]

let test_shape_inversion_pct_of_nfs () =
  (* the paper's headline: between 30 and 80 percent of NFS throughput *)
  let pcts =
    List.map
      (fun op -> R.throughput_pct (inv_cs ()) (nfs ()) op)
      [ W.Read_1mb_single; W.Read_1mb_seq; W.Read_1mb_rand; W.Write_1mb_seq ]
  in
  List.iter
    (fun pct ->
      Alcotest.(check bool) (Printf.sprintf "%.0f%% within 15..110" pct) true
        (pct > 15. && pct < 110.))
    pcts

let test_shape_presto_random_writes () =
  let r = nfs () in
  Alcotest.(check bool) "random no worse than sequential" true
    (W.find r W.Write_1mb_rand <= W.find r W.Write_1mb_seq *. 1.15)

let test_no_presto_slower () =
  let bare = W.run ~file_mb:mb (S.ultrix_nfs ~presto:false ()) in
  Alcotest.(check bool) "writes slower without NVRAM" true
    (W.find bare W.Write_1mb_seq > W.find (nfs ()) W.Write_1mb_seq)

let test_cpu_scale_moves_times () =
  let fast = W.run ~file_mb:mb (S.inversion_single_process ~cpu_scale:0.0 ()) in
  Relstore.Cpu_model.scale := 1.0;
  Alcotest.(check bool) "free CPU is faster" true
    (W.find fast W.Create_file < W.find (inv_sp ()) W.Create_file)

let test_paper_numbers_complete () =
  List.iter
    (fun op ->
      let row = Benchlib.Paper.table3 op in
      Alcotest.(check bool) (W.op_label op) true
        (row.Benchlib.Paper.inv_cs > 0. && row.Benchlib.Paper.nfs > 0.
       && row.Benchlib.Paper.inv_sp > 0.))
    W.all_ops;
  (* figures partition a subset of table 3 *)
  let fig_ops =
    List.concat_map Benchlib.Paper.figure_ops [ `Fig3; `Fig4; `Fig5; `Fig6 ]
  in
  Alcotest.(check int) "figures cover all nine ops" 9 (List.length fig_ops)

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec scan i = i + nl <= hl && (String.sub hay i nl = needle || scan (i + 1)) in
  nl = 0 || scan 0

let test_reports_render () =
  let t = R.table3 ~inv_cs:(inv_cs ()) ~nfs:(nfs ()) ~inv_sp:(inv_sp ()) in
  Alcotest.(check bool) "table mentions every op" true
    (List.for_all (fun op -> contains t (W.op_label op)) W.all_ops);
  let fig = R.figure `Fig5 ~inv_cs:(inv_cs ()) ~nfs:(nfs ()) () in
  Alcotest.(check bool) "figure has title" true (contains fig "Figure 5");
  let checks = R.shape_check ~inv_cs:(inv_cs ()) ~nfs:(nfs ()) ~inv_sp:(inv_sp ()) in
  Alcotest.(check bool) "shape checks pass at 2MB" true (not (contains checks "FAIL"))

let test_sequoia_workload () =
  let r = Benchlib.Sequoia.run ~images:8 ~image_kb:96 () in
  Alcotest.(check int) "seven phases" 7 (List.length r.Benchlib.Sequoia.phases);
  List.iter
    (fun p ->
      Alcotest.(check bool)
        (Printf.sprintf "%s took time" p.Benchlib.Sequoia.phase_name)
        true
        (p.Benchlib.Sequoia.elapsed_s > 0.))
    r.Benchlib.Sequoia.phases;
  let vacuum = List.nth r.Benchlib.Sequoia.phases 6 in
  Alcotest.(check bool) "audit clean" true
    (contains vacuum.Benchlib.Sequoia.detail "audit clean");
  let migration = List.nth r.Benchlib.Sequoia.phases 4 in
  Alcotest.(check bool) "images migrated" true
    (contains migration.Benchlib.Sequoia.detail "moved 8 files")

let test_sequoia_deterministic () =
  let a = Benchlib.Sequoia.run ~images:5 ~image_kb:8 () in
  let b = Benchlib.Sequoia.run ~images:5 ~image_kb:8 () in
  List.iter2
    (fun (p : Benchlib.Sequoia.phase) (q : Benchlib.Sequoia.phase) ->
      Alcotest.(check (float 1e-9)) p.Benchlib.Sequoia.phase_name
        p.Benchlib.Sequoia.elapsed_s q.Benchlib.Sequoia.elapsed_s)
    a.Benchlib.Sequoia.phases b.Benchlib.Sequoia.phases

module Lt = Benchlib.Loadtest

(* Smaller than quick_config: these run on every `dune runtest` next to
   the 3-seed sweep, so they only need to prove replay identity. *)
let tiny_load =
  {
    Lt.quick_config with
    Lt.clients = 6;
    initial_files = 8;
    ops_per_level = 30;
    calibration_ops = 10;
    load_factors = [ 0.5; 1.5 ];
  }

let test_load_schedule_deterministic () =
  let digest seed = Lt.schedule_digest ~config:tiny_load ~seed ~rate:50. ~ops:30 in
  Alcotest.(check string) "same seed, byte-identical schedule" (digest 7L)
    (digest 7L);
  Alcotest.(check bool) "different seed, different schedule" true
    (digest 7L <> digest 8L);
  let render seed =
    Lt.schedule_render (Lt.schedule ~config:tiny_load ~seed ~rate:50. ~ops:30)
  in
  Alcotest.(check string) "render replays byte-identically" (render 7L)
    (render 7L)

let test_load_outcome_deterministic () =
  (* same seed must reproduce the whole outcome — throughput, quantiles,
     knee, commit/abort counts — and stay oracle-clean *)
  let o1 = Lt.run ~config:tiny_load ~seed:7L () in
  let o2 = Lt.run ~config:tiny_load ~seed:7L () in
  Alcotest.(check string) "identical outcome" (Lt.outcome_to_string o1)
    (Lt.outcome_to_string o2);
  Alcotest.(check (list string)) "no oracle mismatches" [] o1.Lt.mismatches

(* ---------- the shared differential oracle ---------- *)

module O = Benchlib.Oracle
module Fs = Invfs.Fs

let d = O.local_driver
let b = Bytes.of_string

let make_fs () =
  let clock = Simclock.Clock.create () in
  let switch = Pagestore.Switch.create ~clock in
  ignore
    (Pagestore.Switch.add_device switch ~name:"disk0" ~kind:Pagestore.Device.Magnetic_disk ()
      : Pagestore.Device.t);
  Fs.make (Relstore.Db.create ~switch ~clock ()) ()

(* A file system and a model that agree: /a holds "hello". *)
let agreed () =
  let fs = make_fs () in
  let s = Fs.new_session fs in
  let o = O.create ~rng:(Simclock.Rng.create 1L) ~trace:false in
  Fs.write_file s "/a" (b "hello");
  let oid = O.fresh_oid o in
  O.commit_updates o
    { O.no_updates with u_names = [ ("/a", Some oid) ]; u_files = [ (oid, b "hello") ] };
  (fs, s, o, oid)

let local_workload sessions =
  {
    O.driver = O.local_driver;
    read = Fs.read_whole_file;
    sessions;
    max_file_bytes = 32 * 1024;
    max_dirs = 8;
    write_segments = true;
    truncate_growth = 8000;
    mix_in_txn = O.standard_mix_in_txn;
    mix_outside = O.standard_mix_outside;
  }

(* The probe is built before the op, as the harnesses build it; it must
   say "landed" exactly when the op was applied. *)
let probe_case ~updates ~apply () =
  List.iter
    (fun applied ->
      let fs, s, o, oid = agreed () in
      let probe = O.probe_of_updates o ~read:Fs.read_whole_file (updates o oid) in
      if applied then apply s;
      Alcotest.(check bool)
        (Printf.sprintf "%s, op %s" probe.O.describe (if applied then "applied" else "not applied"))
        applied (O.landed fs probe))
    [ true; false ]

let test_probe_create =
  probe_case
    ~updates:(fun o _ ->
      let n = O.fresh_oid o in
      { O.no_updates with u_names = [ ("/new", Some n) ]; u_files = [ (n, Bytes.empty) ] })
    ~apply:(fun s -> d.creat s "/new")

let test_probe_mkdir =
  probe_case
    ~updates:(fun _ _ -> { O.no_updates with u_dirs = [ "/d" ] })
    ~apply:(fun s -> d.mkdir s "/d")

let test_probe_write =
  probe_case
    ~updates:(fun _ oid -> { O.no_updates with u_files = [ (oid, b "hello, world") ] })
    ~apply:(fun s ->
      let fd = d.open_rw s "/a" in
      d.seek s fd 5;
      d.write s fd (b ", world");
      d.close s fd)

let test_probe_truncate =
  probe_case
    ~updates:(fun _ oid -> { O.no_updates with u_files = [ (oid, b "he") ] })
    ~apply:(fun s ->
      let fd = d.open_rw s "/a" in
      d.ftruncate s fd 2;
      d.close s fd)

let test_probe_unlink =
  probe_case
    ~updates:(fun _ _ -> { O.no_updates with u_names = [ ("/a", None) ] })
    ~apply:(fun s -> d.unlink s "/a")

let test_probe_rename =
  probe_case
    ~updates:(fun _ oid -> { O.no_updates with u_names = [ ("/a", None); ("/b", Some oid) ] })
    ~apply:(fun s -> d.rename s "/a" "/b")

(* A multi-op transaction built by the shared op generator: the probe of
   its overlay says "landed" after the commit and not after an abort. *)
let test_probe_txn () =
  List.iter
    (fun commit ->
      let fs, s, o, _ = agreed () in
      let ss = O.sess 0 s in
      let w = local_workload [| ss |] in
      ignore (O.op_begin o w ss : O.updates);
      List.iter
        (fun op -> O.record o ss (op o w ss))
        [ O.op_create; O.op_write; O.op_rename; O.op_write; O.op_truncate ];
      let probe = O.probe_of_updates o ~read:Fs.read_whole_file (O.overlay_updates ss) in
      ignore ((if commit then O.op_commit else O.op_abort) o w ss : O.updates);
      Alcotest.(check bool)
        (Printf.sprintf "%s, transaction %s" probe.O.describe
           (if commit then "committed" else "aborted"))
        commit (O.landed fs probe);
      O.verify_full_state o ~read:Fs.read_whole_file (Fs.new_session fs) ~phase:"after";
      Alcotest.(check (list string)) "model follows" [] (O.mismatches o))
    [ true; false ]

(* A fault-free fleet and a model that agree: /a holds "hello". *)
let agreed_fleet () =
  let clock = Simclock.Clock.create () and rng = Simclock.Rng.create 3L in
  let net = Netsim.create ~clock Netsim.tcp_1993 in
  let cluster = Remote.Cluster.create ~clock ~net ~rng:(Simclock.Rng.split rng) () in
  let h = { O.conn = Remote.Cluster.connect cluster ~rng (); pos = 0 } in
  let cd = O.cluster_driver in
  cd.creat h "/a";
  let fd = cd.open_rw h "/a" in
  cd.write h fd (b "hello");
  cd.close h fd;
  let o = O.create ~rng:(Simclock.Rng.create 1L) ~trace:false in
  let oid = O.fresh_oid o in
  O.commit_updates o
    { O.no_updates with u_names = [ ("/a", Some oid) ]; u_files = [ (oid, b "hello") ] };
  (cluster, h, o, oid)

let coord_fs cluster = Remote.Server.fs (Remote.Cluster.member_server cluster 0)

(* The fleet's data probe reads the authoritative shard copy of the
   file the coordinator names. *)
let cluster_probe_case ~after ~apply () =
  List.iter
    (fun applied ->
      let cluster, h, o, oid = agreed_fleet () in
      let probe =
        O.probe_of_updates o ~read:(O.cluster_reader cluster)
          { O.no_updates with u_files = [ (oid, b after) ] }
      in
      if applied then apply O.cluster_driver h (O.cluster_driver.open_rw h "/a");
      Alcotest.(check bool)
        (Printf.sprintf "%s, op %s" probe.O.describe (if applied then "applied" else "not applied"))
        applied
        (O.landed (coord_fs cluster) probe))
    [ true; false ]

let test_probe_cluster_write =
  cluster_probe_case ~after:"hello, world" ~apply:(fun cd h fd ->
      cd.O.seek h fd 5;
      cd.write h fd (b ", world"))

let test_probe_cluster_truncate =
  cluster_probe_case ~after:"he" ~apply:(fun cd h fd -> cd.O.ftruncate h fd 2)

(* Guard against a vacuous oracle: change the real file system behind the
   model's back through a driver, and both verifies must notice. *)
let behind_the_back (type h) (drv : h O.driver) (h : h) fs o =
  let check_count msg before =
    Alcotest.(check bool) msg true (List.length (O.mismatches o) > before)
  in
  O.take_snapshot o ~depth:4 (Relstore.Db.now (Fs.db fs));
  Simclock.Clock.advance (Fs.clock fs) 1e-6;
  O.verify_full_state o ~read:Fs.read_whole_file (Fs.new_session fs) ~phase:"agreed";
  O.check_time_travel o (Fs.new_session fs);
  Alcotest.(check (list string)) "agreement holds" [] (O.mismatches o);
  let fd = drv.open_rw h "/a" in
  drv.seek h fd 0;
  drv.write h fd (b "HELLO");
  drv.close h fd;
  drv.creat h "/zz";
  O.take_snapshot o ~depth:4 (Relstore.Db.now (Fs.db fs));
  Simclock.Clock.advance (Fs.clock fs) 1e-6;
  O.verify_full_state o ~read:Fs.read_whole_file (Fs.new_session fs) ~phase:"diverged";
  check_count "full verify reports the divergence" 0;
  let n = List.length (O.mismatches o) in
  O.check_time_travel o (Fs.new_session fs);
  check_count "time travel reports the divergence" n

(* A name in a past listing that the model did not have then is a
   divergence too, even though every file the model knows reads back. *)
let test_vacuity_listing () =
  let fs, s, o, _ = agreed () in
  d.creat s "/zz";
  O.take_snapshot o ~depth:4 (Relstore.Db.now (Fs.db fs));
  Simclock.Clock.advance (Fs.clock fs) 1e-6;
  O.check_time_travel o (Fs.new_session fs);
  match O.mismatches o with
  | [ m ] ->
    Alcotest.(check bool) ("names the listing: " ^ m) true (contains m "listing of / differs")
  | ms -> Alcotest.failf "expected one listing mismatch, got %d" (List.length ms)

let test_vacuity_local () =
  let fs, s, o, _ = agreed () in
  behind_the_back O.local_driver s fs o

let test_vacuity_client () =
  let fs, _, o, _ = agreed () in
  let server = Remote.Server.create ~fs () in
  let net = Netsim.create ~clock:(Fs.clock fs) Netsim.tcp_1993 in
  let c =
    Remote.Client.connect ~server ~link:(Netsim.Link.create net) ~rng:(Simclock.Rng.create 2L) ()
  in
  behind_the_back O.client_driver c fs o

(* The fleet's verify reads the shard copies: a shard write and a
   coordinator create behind the model's back must each be reported. *)
let test_vacuity_cluster () =
  List.iter
    (fun (what, diverge) ->
      let cluster, h, o, _ = agreed_fleet () in
      let verify phase =
        O.verify_full_state o ~read:(O.cluster_reader cluster)
          (Fs.new_session (coord_fs cluster)) ~phase
      in
      verify "agreed";
      Alcotest.(check (list string)) "agreement holds" [] (O.mismatches o);
      diverge h;
      verify "diverged";
      Alcotest.(check bool) (what ^ " is reported") true (O.mismatches o <> []))
    [
      ( "shard write",
        fun h ->
          let oid = Int64.of_int (O.cluster_driver.open_rw h "/a") in
          ignore (Remote.Cluster.shard_write h.O.conn ~oid ~off:0L ~data:"HELLO" : int) );
      ( "coordinator create",
        fun h ->
          let c = Remote.Cluster.coord h.O.conn in
          Remote.Client.c_close c (Remote.Client.c_creat c "/zz") );
    ]

let () =
  Alcotest.run "benchlib"
    [
      ( "workload",
        [
          Alcotest.test_case "all ops measured" `Quick test_all_ops_present;
          Alcotest.test_case "deterministic" `Quick test_deterministic;
          Alcotest.test_case "contents survive" `Quick test_file_contents_survive_workload;
        ] );
      ( "paper shapes",
        [
          Alcotest.test_case "NFS wins create" `Quick test_shape_nfs_wins_create;
          Alcotest.test_case "single-process wins reads" `Quick
            test_shape_single_process_fastest_reads;
          Alcotest.test_case "30-80%% band" `Quick test_shape_inversion_pct_of_nfs;
          Alcotest.test_case "PRESTO random writes" `Quick test_shape_presto_random_writes;
          Alcotest.test_case "no-PRESTO ablation" `Quick test_no_presto_slower;
          Alcotest.test_case "cpu scale ablation" `Quick test_cpu_scale_moves_times;
        ] );
      ( "reporting",
        [
          Alcotest.test_case "paper numbers complete" `Quick test_paper_numbers_complete;
          Alcotest.test_case "reports render" `Quick test_reports_render;
        ] );
      ( "sequoia workload",
        [
          Alcotest.test_case "runs clean" `Quick test_sequoia_workload;
          Alcotest.test_case "deterministic" `Quick test_sequoia_deterministic;
        ] );
      ( "load replay",
        [
          Alcotest.test_case "schedule deterministic" `Quick
            test_load_schedule_deterministic;
          Alcotest.test_case "outcome deterministic" `Quick
            test_load_outcome_deterministic;
        ] );
      ( "oracle probes",
        [
          Alcotest.test_case "create" `Quick test_probe_create;
          Alcotest.test_case "mkdir" `Quick test_probe_mkdir;
          Alcotest.test_case "write" `Quick test_probe_write;
          Alcotest.test_case "truncate" `Quick test_probe_truncate;
          Alcotest.test_case "unlink" `Quick test_probe_unlink;
          Alcotest.test_case "rename" `Quick test_probe_rename;
          Alcotest.test_case "transaction overlay" `Quick test_probe_txn;
          Alcotest.test_case "cluster write" `Quick test_probe_cluster_write;
          Alcotest.test_case "cluster truncate" `Quick test_probe_cluster_truncate;
        ] );
      ( "oracle vacuity",
        [
          Alcotest.test_case "local driver" `Quick test_vacuity_local;
          Alcotest.test_case "client driver" `Quick test_vacuity_client;
          Alcotest.test_case "past listing" `Quick test_vacuity_listing;
          Alcotest.test_case "cluster driver" `Quick test_vacuity_cluster;
        ] );
    ]
