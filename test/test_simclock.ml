(* Simulated clock, PRNG and statistics. *)

let test_clock_advance () =
  let c = Simclock.Clock.create () in
  Alcotest.(check (float 1e-9)) "starts at zero" 0. (Simclock.Clock.now c);
  Simclock.Clock.advance c ~account:"a" 1.5;
  Simclock.Clock.advance c ~account:"b" 0.25;
  Simclock.Clock.advance c ~account:"a" 0.25;
  Alcotest.(check (float 1e-6)) "now" 2.0 (Simclock.Clock.now c);
  Alcotest.(check (float 1e-6)) "account a" 1.75 (Simclock.Clock.charged c "a");
  Alcotest.(check (float 1e-6)) "account b" 0.25 (Simclock.Clock.charged c "b");
  Alcotest.(check (float 1e-6)) "unknown account" 0. (Simclock.Clock.charged c "zzz")

let test_clock_negative () =
  let c = Simclock.Clock.create () in
  Alcotest.check_raises "negative dt" (Invalid_argument "Clock.advance: negative duration")
    (fun () -> Simclock.Clock.advance c (-1.))

let test_clock_reset () =
  let c = Simclock.Clock.create () in
  Simclock.Clock.advance c 5.;
  Simclock.Clock.reset c;
  Alcotest.(check (float 1e-9)) "reset time" 0. (Simclock.Clock.now c);
  Alcotest.(check int) "no accounts" 0 (List.length (Simclock.Clock.accounts c))

let test_clock_timestamp () =
  let c = Simclock.Clock.create () in
  Simclock.Clock.advance c 1.0;
  Alcotest.(check int64) "1s = 1e6 µs" 1_000_000L (Simclock.Clock.timestamp c);
  Simclock.Clock.advance c 0.000001;
  Alcotest.(check int64) "µs precision" 1_000_001L (Simclock.Clock.timestamp c)

let test_rng_determinism () =
  let a = Simclock.Rng.create 7L and b = Simclock.Rng.create 7L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Simclock.Rng.next a) (Simclock.Rng.next b)
  done

let test_rng_bounds () =
  let rng = Simclock.Rng.create 1L in
  for _ = 1 to 1000 do
    let v = Simclock.Rng.int rng 17 in
    if v < 0 || v >= 17 then Alcotest.failf "out of bounds: %d" v
  done;
  for _ = 1 to 1000 do
    let f = Simclock.Rng.float rng 3.5 in
    if f < 0. || f >= 3.5 then Alcotest.failf "float out of bounds: %f" f
  done

let test_rng_shuffle_permutes () =
  let rng = Simclock.Rng.create 3L in
  let a = Array.init 100 (fun i -> i) in
  Simclock.Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 100 (fun i -> i)) sorted

let test_rng_split_independent () =
  let rng = Simclock.Rng.create 11L in
  let child = Simclock.Rng.split rng in
  let v1 = Simclock.Rng.next child in
  let v2 = Simclock.Rng.next rng in
  Alcotest.(check bool) "streams differ" true (v1 <> v2)

let test_stats_summary () =
  let s = Simclock.Stats.summarize [ 1.; 2.; 3.; 4.; 5. ] in
  Alcotest.(check int) "n" 5 s.n;
  Alcotest.(check (float 1e-9)) "mean" 3. s.mean;
  Alcotest.(check (float 1e-9)) "min" 1. s.min;
  Alcotest.(check (float 1e-9)) "max" 5. s.max;
  Alcotest.(check (float 1e-9)) "p50" 3. s.p50;
  Alcotest.(check (float 1e-6)) "stddev" (sqrt 2.5) s.stddev

let test_stats_singleton () =
  let s = Simclock.Stats.summarize [ 42. ] in
  Alcotest.(check (float 1e-9)) "mean" 42. s.mean;
  Alcotest.(check (float 1e-9)) "stddev" 0. s.stddev;
  Alcotest.(check (float 1e-9)) "p99" 42. s.p99

let test_stats_empty () =
  Alcotest.check_raises "empty" (Invalid_argument "Stats.summarize: empty sample")
    (fun () -> ignore (Simclock.Stats.summarize []))

let prop_rng_int_uniformish =
  QCheck.Test.make ~name:"rng int covers range" ~count:20
    QCheck.(int_range 2 50)
    (fun bound ->
      let rng = Simclock.Rng.create (Int64.of_int bound) in
      let seen = Array.make bound false in
      for _ = 1 to bound * 200 do
        seen.(Simclock.Rng.int rng bound) <- true
      done;
      Array.for_all Fun.id seen)

let prop_percentile_monotone =
  QCheck.Test.make ~name:"percentiles are monotone" ~count:50
    QCheck.(list_of_size Gen.(int_range 1 50) (float_bound_exclusive 1000.))
    (fun xs ->
      QCheck.assume (xs <> []);
      let a = Array.of_list xs in
      Array.sort compare a;
      let p q = Simclock.Stats.percentile a q in
      p 0.1 <= p 0.5 && p 0.5 <= p 0.9 && p 0.9 <= p 1.0)

let () =
  Alcotest.run "simclock"
    [
      ( "clock",
        [
          Alcotest.test_case "advance and accounts" `Quick test_clock_advance;
          Alcotest.test_case "negative advance rejected" `Quick test_clock_negative;
          Alcotest.test_case "reset" `Quick test_clock_reset;
          Alcotest.test_case "timestamp precision" `Quick test_clock_timestamp;
        ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_determinism;
          Alcotest.test_case "bounds respected" `Quick test_rng_bounds;
          Alcotest.test_case "shuffle permutes" `Quick test_rng_shuffle_permutes;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
        ] );
      ( "stats",
        [
          Alcotest.test_case "summary" `Quick test_stats_summary;
          Alcotest.test_case "singleton" `Quick test_stats_singleton;
          Alcotest.test_case "empty rejected" `Quick test_stats_empty;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_rng_int_uniformish; prop_percentile_monotone ] );
    ]
