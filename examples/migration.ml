(* File migration across the storage hierarchy.

   Run with:  dune exec examples/migration.exe

   "Files that meet some selection criteria should be moved from fast,
   expensive storage like magnetic disk to slower, cheaper storage ...
   the rules system allows detailed migration conditions to be set up for
   as many different kinds of files as necessary."

   We build the Berkeley hardware: magnetic disk, NVRAM, and a Sony WORM
   optical jukebox with an 8-second platter exchange, then declare rules
   in the query language and watch cost and placement change. *)

module Fs = Invfs.Fs

let say fmt = Printf.printf (fmt ^^ "\n")

let () =
  let clock = Simclock.Clock.create () in
  let switch = Pagestore.Switch.create ~clock in
  let add name kind = ignore (Pagestore.Switch.add_device switch ~name ~kind () : Pagestore.Device.t) in
  add "disk0" Pagestore.Device.Magnetic_disk;
  add "nvram0" Pagestore.Device.Nvram;
  add "jukebox" Pagestore.Device.Worm_jukebox;
  let db = Relstore.Db.create ~switch ~clock () in
  let fs = Fs.make db () in
  let s = Fs.new_session fs in
  Fs.define_type fs "tm";

  say "devices on the switch:";
  List.iter
    (fun d ->
      say "  %-8s (%s)" (Pagestore.Device.name d)
        (Pagestore.Device.kind_to_string (Pagestore.Device.kind d)))
    (Pagestore.Switch.devices switch);

  (* The namespace is uniform across devices: files land wherever
     p_creat says, and paths never change. *)
  Fs.mkdir s "/data";
  let put path ?device ?ftype size =
    let fd = Fs.p_creat s ?device ?ftype path in
    ignore (Fs.p_write s fd (Bytes.create size) size : int);
    Fs.p_close s fd
  in
  put "/data/raw_image_1.tm" ~ftype:"tm" 300_000;
  put "/data/raw_image_2.tm" ~ftype:"tm" 450_000;
  put "/data/notes.txt" 2_000;
  put "/data/hot.idx" ~device:"nvram0" 5_000;

  let show_placement () =
    List.iter
      (fun name ->
        let att = Fs.stat s ("/data/" ^ name) in
        say "  %-18s %8Ld bytes on %s" name att.Invfs.Fileatt.size att.Invfs.Fileatt.device)
      (Fs.readdir s "/data")
  in
  say "";
  say "initial placement:";
  show_placement ();

  (* Rules, in the query language: big satellite images sink to the
     jukebox; everything small stays on disk. *)
  let rules =
    [
      Invfs.Migrate.rule ~name:"images-to-tertiary"
        ~predicate:{|filetype(file) = "tm" and size(file) > 100000|}
        ~target_device:"jukebox";
    ]
  in
  say "";
  say "running migration sweep (rule: tm images > 100 KB -> jukebox)...";
  let report = Invfs.Migrate.run fs rules in
  List.iter
    (fun m ->
      say "  moved %s: %s -> %s" m.Invfs.Migrate.path m.Invfs.Migrate.from_device
        m.Invfs.Migrate.to_device)
    report.Invfs.Migrate.moved;
  say "placement after migration:";
  show_placement ();

  say "";
  say "== Access is transparent, but the cost model tells the truth ==";
  let timed_read path =
    let cache = Relstore.Db.cache db in
    Pagestore.Bufcache.flush cache;
    Pagestore.Bufcache.crash cache;
    let t0 = Simclock.Clock.now clock in
    let (_ : bytes) = Fs.read_whole_file s path in
    Simclock.Clock.now clock -. t0
  in
  say "cold read of notes.txt (disk):      %8.3fs" (timed_read "/data/notes.txt");
  say "read of raw_image_1 (jukebox):      %8.3fs  (served by the jukebox's disk cache;"
    (timed_read "/data/raw_image_1.tm");
  say "                                              the 8s platter load was paid once, at migration)";
  say "jukebox platter exchanges so far: %d"
    (Option.value ~default:0 (Obs.Metrics.read "jukebox.platter_exchange"));

  say "";
  say "== History survives migration ==";
  Simclock.Clock.advance clock 10.;
  let before = Relstore.Db.now db in
  Simclock.Clock.advance clock 10.;
  Fs.write_file s "/data/notes.txt" (Bytes.of_string "rewritten");
  Fs.migrate_file fs ~oid:(Fs.lookup_oid s "/data/notes.txt") ~device:"jukebox";
  say "notes.txt now on %s, contents %S" (Fs.stat s "/data/notes.txt").Invfs.Fileatt.device
    (Bytes.to_string (Fs.read_whole_file s "/data/notes.txt"));
  say "notes.txt before the rewrite (read through the moved relation): %d bytes"
    (Bytes.length (Fs.read_whole_file s ~timestamp:before "/data/notes.txt"));
  say "";
  say "done.  Simulated elapsed: %.1fs" (Simclock.Clock.now clock)
