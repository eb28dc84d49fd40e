(* Concurrency: two-phase locking observed through the file-system API.
   The engine is single-threaded; sessions interleave explicitly, which
   makes lock conflicts, deadlock detection and isolation deterministic
   and testable. *)

module Fs = Invfs.Fs
module E = Invfs.Errors

let fresh () =
  let db = Relstore.Db.create () in
  let fs = Fs.make db () in
  (fs, Fs.new_session fs, Fs.new_session fs)

let bytes_of = Bytes.of_string
let str = Bytes.to_string

let expect_error code f =
  match f () with
  | _ -> Alcotest.failf "expected %s" (E.code_to_string code)
  | exception E.Fs_error (c, _) ->
    Alcotest.(check string) "error code" (E.code_to_string code) (E.code_to_string c)

let test_writer_blocks_writer () =
  let _, s1, s2 = fresh () in
  Fs.write_file s1 "/f" (bytes_of "v0");
  Fs.p_begin s1;
  Fs.write_file s1 "/f" (bytes_of "v1");
  (* s2 cannot write the same file until s1 commits *)
  Fs.p_begin s2;
  expect_error E.EAGAIN (fun () -> Fs.write_file s2 "/f" (bytes_of "v2"));
  Fs.p_abort s2;
  Fs.p_commit s1;
  (* now it can *)
  Fs.write_file s2 "/f" (bytes_of "v2");
  Alcotest.(check string) "final" "v2" (str (Fs.read_whole_file s2 "/f"))

let test_writer_blocks_reader_until_commit () =
  let _, s1, s2 = fresh () in
  Fs.write_file s1 "/f" (bytes_of "committed");
  Fs.p_begin s1;
  Fs.write_file s1 "/f" (bytes_of "uncommitted");
  (* a transactional reader conflicts on the relation lock (2PL, the
     paper's degree-3 consistency)... *)
  Fs.p_begin s2;
  expect_error E.EAGAIN (fun () ->
      ignore (Fs.read_whole_file s2 "/f" : bytes));
  Fs.p_abort s2;
  (* ...while a time-travel reader sails past the locks and sees only
     committed state *)
  let now = Relstore.Db.now (Fs.db (Fs.fs s1)) in
  ignore now;
  Fs.p_commit s1;
  Alcotest.(check string) "after commit" "uncommitted" (str (Fs.read_whole_file s2 "/f"))

let test_historical_reads_never_block () =
  let fs, s1, s2 = fresh () in
  Fs.write_file s1 "/f" (bytes_of "old state");
  Simclock.Clock.advance (Fs.clock fs) 1.;
  let t1 = Relstore.Db.now (Fs.db fs) in
  Simclock.Clock.advance (Fs.clock fs) 1.;
  Fs.p_begin s1;
  Fs.write_file s1 "/f" (bytes_of "in flight");
  (* historical open takes no locks: concurrent with the writer *)
  Alcotest.(check string) "past readable during write txn" "old state"
    (str (Fs.read_whole_file s2 ~timestamp:t1 "/f"));
  Fs.p_commit s1

let test_readers_share () =
  let _, s1, s2 = fresh () in
  Fs.write_file s1 "/f" (bytes_of "shared");
  Fs.p_begin s1;
  Alcotest.(check string) "s1 reads" "shared" (str (Fs.read_whole_file s1 "/f"));
  Fs.p_begin s2;
  Alcotest.(check string) "s2 reads concurrently" "shared"
    (str (Fs.read_whole_file s2 "/f"));
  Fs.p_commit s1;
  Fs.p_commit s2

let test_deadlock_detected () =
  let _, s1, s2 = fresh () in
  Fs.write_file s1 "/a" (bytes_of "a");
  Fs.write_file s1 "/b" (bytes_of "b");
  Fs.p_begin s1;
  Fs.p_begin s2;
  Fs.write_file s1 "/a" (bytes_of "a1");
  Fs.write_file s2 "/b" (bytes_of "b2");
  (* s1 waits for /b's holder (s2)... *)
  expect_error E.EAGAIN (fun () -> Fs.write_file s1 "/b" (bytes_of "x"));
  (* ...and s2 asking for /a closes the cycle: deadlock *)
  expect_error E.EDEADLK (fun () -> Fs.write_file s2 "/a" (bytes_of "y"));
  Fs.p_abort s2;
  (* victim aborted: s1 can proceed *)
  Fs.write_file s1 "/b" (bytes_of "b1");
  Fs.p_commit s1;
  Alcotest.(check string) "s1 won" "b1" (str (Fs.read_whole_file s2 "/b"))

(* The catalogs lock rows, and names are locked on their own: creates
   of different names in one directory proceed together, while every
   conflict a name or a directory can have still surfaces. *)
let test_namespace_lock_conflicts () =
  let _, s1, s2 = fresh () in
  Fs.mkdir s1 "/d";
  (* (a) different names in one directory: no false conflict *)
  Fs.p_begin s1;
  Fs.p_begin s2;
  Fs.mkdir s1 "/d/a";
  Fs.p_close s2 (Fs.p_creat s2 "/d/b");
  Fs.p_commit s1;
  Fs.p_commit s2;
  Alcotest.(check (list string)) "both created" [ "a"; "b" ] (Fs.readdir s2 "/d");
  (* (b) the same name: EAGAIN while the first creator is uncommitted,
     EEXIST once it commits *)
  Fs.p_begin s1;
  Fs.mkdir s1 "/d/c";
  Fs.p_begin s2;
  expect_error E.EAGAIN (fun () -> Fs.mkdir s2 "/d/c");
  Fs.p_abort s2;
  Fs.p_commit s1;
  expect_error E.EEXIST (fun () -> Fs.mkdir s2 "/d/c");
  (* (c) rmdir against an uncommitted create inside the directory, in
     either order *)
  Fs.mkdir s1 "/e";
  Fs.p_begin s1;
  Fs.mkdir s1 "/e/x";
  expect_error E.EAGAIN (fun () -> Fs.rmdir s2 "/e");
  Fs.p_abort s1;
  Fs.p_begin s2;
  Fs.rmdir s2 "/e";
  Fs.p_begin s1;
  expect_error E.EAGAIN (fun () -> Fs.mkdir s1 "/e/y");
  Fs.p_abort s1;
  Fs.p_commit s2;
  expect_error E.ENOENT (fun () -> Fs.mkdir s1 "/e/y");
  (* (d) rename onto a name being created conflicts *)
  Fs.write_file s1 "/src" (bytes_of "s");
  Fs.p_begin s1;
  Fs.p_close s1 (Fs.p_creat s1 "/d/new");
  expect_error E.EAGAIN (fun () -> Fs.rename s2 "/src" "/d/new");
  Fs.p_commit s1;
  expect_error E.EEXIST (fun () -> Fs.rename s2 "/src" "/d/new");
  Alcotest.(check (list string)) "final names" [ "a"; "b"; "c"; "new" ] (Fs.readdir s2 "/d")

let test_autocommit_read_needs_no_lock () =
  let _, s1, s2 = fresh () in
  Fs.write_file s1 "/f" (bytes_of "committed");
  Fs.p_begin s1;
  Fs.write_file s1 "/f" (bytes_of "uncommitted");
  (* outside a transaction the read takes no lock and sees the last
     committed bytes *)
  Alcotest.(check string) "auto-commit read" "committed"
    (str (Fs.read_whole_file s2 "/f"));
  (* inside one it still share-locks the data heap *)
  Fs.p_begin s2;
  expect_error E.EAGAIN (fun () -> ignore (Fs.read_whole_file s2 "/f" : bytes));
  Fs.p_abort s2;
  Fs.p_commit s1;
  Alcotest.(check string) "after commit" "uncommitted" (str (Fs.read_whole_file s2 "/f"))

let test_abort_releases_locks () =
  let _, s1, s2 = fresh () in
  Fs.write_file s1 "/f" (bytes_of "v0");
  Fs.p_begin s1;
  Fs.write_file s1 "/f" (bytes_of "doomed");
  Fs.p_abort s1;
  (* immediately available to others, and the write is gone *)
  Fs.p_begin s2;
  Alcotest.(check string) "clean state" "v0" (str (Fs.read_whole_file s2 "/f"));
  Fs.p_commit s2

let test_sessions_isolated_metadata () =
  let _, s1, s2 = fresh () in
  Fs.write_file s1 "/f" (bytes_of "12345");
  Fs.p_begin s1;
  let fd = Fs.p_open s1 "/f" Fs.Rdwr in
  ignore (Fs.p_lseek s1 fd 0L Fs.Seek_end : int64);
  ignore (Fs.p_write s1 fd (bytes_of "678") 3);
  Fs.p_close s1 fd;
  (* s2's stat sees the committed 5 bytes, not s1's staged 8 *)
  Alcotest.(check int64) "uncommitted size hidden" 5L
    (Fs.stat s2 "/f").Invfs.Fileatt.size;
  Fs.p_commit s1;
  Alcotest.(check int64) "committed size visible" 8L (Fs.stat s2 "/f").Invfs.Fileatt.size

let () =
  Alcotest.run "concurrency"
    [
      ( "two-phase locking",
        [
          Alcotest.test_case "writer blocks writer" `Quick test_writer_blocks_writer;
          Alcotest.test_case "writer blocks reader" `Quick
            test_writer_blocks_reader_until_commit;
          Alcotest.test_case "historical reads never block" `Quick
            test_historical_reads_never_block;
          Alcotest.test_case "readers share" `Quick test_readers_share;
          Alcotest.test_case "deadlock detected" `Quick test_deadlock_detected;
          Alcotest.test_case "namespace locking" `Quick test_namespace_lock_conflicts;
          Alcotest.test_case "auto-commit read takes no lock" `Quick
            test_autocommit_read_needs_no_lock;
          Alcotest.test_case "abort releases locks" `Quick test_abort_releases_locks;
          Alcotest.test_case "metadata isolation" `Quick test_sessions_isolated_metadata;
        ] );
    ]
