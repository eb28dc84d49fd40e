type t = { mutable usec : int64; charges : (string, int64) Hashtbl.t }

let create () = { usec = 0L; charges = Hashtbl.create 16 }

let usec_of_sec s = Int64.of_float (s *. 1e6 +. 0.5)
let sec_of_usec u = Int64.to_float u /. 1e6

let now t = sec_of_usec t.usec

let advance t ?(account = "unattributed") dt =
  if dt < 0. then invalid_arg "Clock.advance: negative duration";
  let du = usec_of_sec dt in
  t.usec <- Int64.add t.usec du;
  let prev = Option.value ~default:0L (Hashtbl.find_opt t.charges account) in
  Hashtbl.replace t.charges account (Int64.add prev du)

let reset t =
  t.usec <- 0L;
  Hashtbl.reset t.charges

let charged t account =
  match Hashtbl.find_opt t.charges account with
  | None -> 0.
  | Some u -> sec_of_usec u

let accounts t =
  Hashtbl.fold (fun k v acc -> (k, sec_of_usec v) :: acc) t.charges []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let timestamp t = t.usec
