(* Source control on a file system: the paper's motivating scenario.

   Run with:  dune exec examples/source_control.exe

   "Programmers working on a large software project may need to be able
   to check in several fixed source code files at the same time.  If the
   system crashes when some, but not all, of the files have been checked
   in, then the software project's master directory will be in an
   inconsistent state."

   With Inversion, check-ins are transactions and every committed state
   remains reachable, so the file system itself is "a superset of the
   services offered by revision control programs like rcs(1)" — no
   ,v files, no rcs commands, just time travel. *)

module Fs = Invfs.Fs

let say fmt = Printf.printf (fmt ^^ "\n")
let bytes_of = Bytes.of_string
let str = Bytes.to_string

type checkin = { tag : string; when_ : int64 }

let () =
  let clock = Simclock.Clock.create () in
  let db = Relstore.Db.create ~clock () in
  let fs = Fs.make db () in
  let s = Fs.new_session fs in
  Fs.mkdir s "/project";
  Fs.mkdir s "/project/src";

  (* Each check-in is one transaction over many files; we remember the
     commit instant as the "revision". *)
  let history = ref [] in
  let checkin tag files =
    Fs.with_transaction s (fun () ->
        List.iter (fun (path, contents) -> Fs.write_file s path (bytes_of contents)) files);
    Simclock.Clock.advance clock 60.;
    history := { tag; when_ = Relstore.Db.now db } :: !history;
    Simclock.Clock.advance clock 3540.;
    say "checked in %-8s (%d files)" tag (List.length files)
  in

  checkin "r1"
    [
      ("/project/src/parser.c", "parse() { /* v1 */ }");
      ("/project/src/parser.h", "/* api v1 */");
      ("/project/Makefile", "all: parser.o");
    ];
  checkin "r2"
    [
      ("/project/src/parser.c", "parse() { /* v2: new AST */ }");
      ("/project/src/parser.h", "/* api v2: ast nodes */");
    ];
  checkin "r3"
    [
      ("/project/src/parser.c", "parse() { /* v3: oops, broke the build */ }");
      ("/project/src/codegen.c", "codegen() { /* needs api v3?? */ }");
    ];

  say "";
  say "== A failed check-in leaves no trace ==";
  (try
     Fs.with_transaction s (fun () ->
         Fs.write_file s "/project/src/parser.c" (bytes_of "half done");
         failwith "editor crashed mid-checkin")
   with Failure _ -> say "check-in aborted (editor crashed)");
  say "parser.c is still r3: %S" (str (Fs.read_whole_file s "/project/src/parser.c"));

  say "";
  say "== Browsing history: every revision is a timestamp ==";
  let revisions = List.rev !history in
  let show_rev { tag; when_ } =
    let files = Fs.readdir s ~timestamp:when_ "/project/src" in
    say "  %s (t=%Ldus): src/ = [%s]  parser.c = %S" tag when_
      (String.concat "; " files)
      (str (Fs.read_whole_file s ~timestamp:when_ "/project/src/parser.c"))
  in
  List.iter show_rev revisions;

  say "";
  say "== Reverting the broken build: copy r2 forward ==";
  let r2 = List.find (fun r -> r.tag = "r2") revisions in
  Fs.with_transaction s (fun () ->
      List.iter
        (fun file ->
          let path = "/project/src/" ^ file in
          if Fs.exists s ~timestamp:r2.when_ path then
            Fs.write_file s path (Fs.read_whole_file s ~timestamp:r2.when_ path))
        (Fs.readdir s "/project/src"));
  say "parser.c after revert: %S" (str (Fs.read_whole_file s "/project/src/parser.c"));
  say "(and r3 itself is still in history, nothing was destroyed)";

  say "";
  say "== Old versions survive even vacuuming, via the archive ==";
  let oid = Fs.lookup_oid s "/project/src/parser.c" in
  let stats = Fs.vacuum_file fs ~oid ~mode:`Archive () in
  say "vacuumed parser.c: %d versions archived, %d discarded" stats.Relstore.Vacuum.s_archived
    stats.Relstore.Vacuum.s_discarded;
  let r1 = List.find (fun r -> r.tag = "r1") revisions in
  say "r1 parser.c read from the archive: %S"
    (str (Fs.read_whole_file s ~timestamp:r1.when_ "/project/src/parser.c"));
  say "";
  say "done."
