(** Mean / standard deviation / percentile helpers for the bench harness. *)

let mean xs =
  match xs with
  | [] -> 0.
  | _ -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let stddev xs =
  match xs with
  | [] | [ _ ] -> 0.
  | _ ->
      let m = mean xs in
      let var =
        List.fold_left (fun acc x -> acc +. ((x -. m) ** 2.)) 0. xs
        /. float_of_int (List.length xs - 1)
      in
      sqrt var

(* Sorted-array nearest-rank with linear interpolation (the "type 7"
   estimator); one sort then O(1) per lookup — the old List.nth walk was
   O(n²) across the repeated p50/p90/p99 calls the figures make. The
   single percentile definition lives in [Obs.percentile_sorted]. *)
let percentile p xs = Obs.percentile_list p xs
