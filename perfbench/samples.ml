(* Exact order statistics over the benchmark's own samples.

   Percentiles come from sorting every recorded value (nearest-rank),
   never from bucketed histograms, so p50 and p99 can differ by any
   amount.  A failed operation is recorded as [infinity]: it ranks above
   every success and counts as a miss against any latency limit. *)

type t = { mutable a : float array; mutable n : int }

let create () = { a = Array.make 64 0.; n = 0 }

let add s x =
  if s.n = Array.length s.a then begin
    let b = Array.make (2 * s.n) 0. in
    Array.blit s.a 0 b 0 s.n;
    s.a <- b
  end;
  s.a.(s.n) <- x;
  s.n <- s.n + 1

let count s = s.n

let sorted s =
  let c = Array.sub s.a 0 s.n in
  Array.sort compare c;
  c

(* Nearest rank: the smallest value with at least [q] of the samples at
   or below it. *)
let rank n q = max 0 (min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1))

let percentile_sorted c q =
  let n = Array.length c in
  if n = 0 then 0. else c.(rank n q)

let percentile s q = percentile_sorted (sorted s) q

(* How many samples rank strictly above the [q] percentile's position —
   the evidence behind a tail estimate. *)
let beyond s q = if s.n = 0 then 0 else s.n - 1 - rank s.n q

let max_value s =
  let m = ref 0. in
  for i = 0 to s.n - 1 do
    if s.a.(i) > !m then m := s.a.(i)
  done;
  !m

let median_of l = percentile_sorted (Array.of_list (List.sort compare l)) 0.5
