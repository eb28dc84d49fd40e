(* Long-mode network-fault sweep, run via `dune build @net`.

   Covers 200 seeded fault schedules by default; NET_SEEDS=5,6,7 appends
   extra comma-separated seeds, NET_OPS=N lengthens each run, and
   `--quick` (wired into the default `dune runtest`) trims to a fast
   subset.  `--trace SEED` replays one seed with the per-op repro log on
   stderr. *)

let base_seeds = List.init 200 (fun i -> Int64.of_int (i + 1))
let quick_seeds = [ 1L; 2L; 3L; 4L; 5L; 6L ]

let env_seeds () =
  match Sys.getenv_opt "NET_SEEDS" with
  | None | Some "" -> []
  | Some s ->
    String.split_on_char ',' s
    |> List.filter_map (fun tok ->
           match Int64.of_string_opt (String.trim tok) with
           | Some n -> Some n
           | None ->
             Printf.eprintf "net_sweep: ignoring bad seed %S\n" tok;
             None)

let ops () =
  match Sys.getenv_opt "NET_OPS" with
  | None | Some "" -> Benchlib.Nettest.default_config.Benchlib.Nettest.ops
  | Some s -> int_of_string s

let () =
  let quick = Array.exists (( = ) "--quick") Sys.argv in
  let trace_seed =
    let rec find i =
      if i >= Array.length Sys.argv then None
      else if Sys.argv.(i) = "--trace" && i + 1 < Array.length Sys.argv then
        Int64.of_string_opt Sys.argv.(i + 1)
      else find (i + 1)
    in
    find 1
  in
  let config =
    { Benchlib.Nettest.default_config with ops = ops (); trace = trace_seed <> None }
  in
  let seeds =
    match trace_seed with
    | Some s -> [ s ]
    | None -> (if quick then quick_seeds else base_seeds) @ env_seeds ()
  in
  let failed = ref 0 in
  let carried = ref 0 and begins = ref 0 in
  List.iter
    (fun seed ->
      let o = Benchlib.Nettest.run ~config ~seed () in
      carried := !carried + o.Benchlib.Nettest.closes_carried;
      begins := !begins + o.Benchlib.Nettest.begins_carried;
      Printf.printf "%s\n%!" (Benchlib.Nettest.outcome_to_string o);
      List.iter
        (fun m ->
          incr failed;
          Printf.printf "  MISMATCH: %s\n%!" m)
        o.Benchlib.Nettest.mismatches)
    seeds;
  Printf.printf "closes carried: %d\n%!" !carried;
  Printf.printf "begins carried: %d\n%!" !begins;
  (* The fault schedules must reach the close-behind path, for closes
     and Begins alike, or the sweep says nothing about it. *)
  if !carried = 0 then begin
    Printf.eprintf "net_sweep: no close was carried on a later request\n";
    exit 1
  end;
  if !begins = 0 then begin
    Printf.eprintf "net_sweep: no Begin was carried on a later request\n";
    exit 1
  end;
  if !failed > 0 then begin
    Printf.eprintf "net_sweep: %d mismatches (repro: net_sweep.exe --trace SEED)\n"
      !failed;
    exit 1
  end
