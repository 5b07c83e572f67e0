(** Abstract memory model for the dynamic slicer.

    Keys dynamic memory defs/uses by address ranges instead of bytes:
    a strong-update write of [(addr, len)] installs one range carrying
    its payload (splitting whatever it overlaps), and adjacent ranges
    with equal payloads coalesce, so the table size stays proportional
    to the number of distinct touched regions — not to the bytes
    touched. With hash-consed dependency sets as payloads (physical
    equality), a server writing a 4 KiB buffer in 512 8-byte stores of
    the same provenance collapses to a single range. *)

module M = Map.Make (Int64)

type 'a t = {
  eq : 'a -> 'a -> bool;  (** payload equality used for coalescing *)
  mutable ranges : (int * 'a) M.t;  (** start -> (len, payload); disjoint *)
}

let create ?(eq = fun a b -> a == b) () = { eq; ranges = M.empty }
let clear t = t.ranges <- M.empty
let cardinal t = M.cardinal t.ranges

let ranges t =
  M.fold (fun lo (len, pay) acc -> (lo, len, pay) :: acc) t.ranges []
  |> List.rev

let end_ lo len = Int64.add lo (Int64.of_int len)

(* every range overlapping [addr, addr+len), address order: at most one
   starting below [addr], then a walk over those starting inside *)
let overlapping t ~(addr : int64) ~(len : int) =
  let hi = end_ addr len in
  let below =
    match M.find_last_opt (fun k -> Int64.compare k addr < 0) t.ranges with
    | Some (lo, (l, pay)) when Int64.compare (end_ lo l) addr > 0 ->
        [ (lo, l, pay) ]
    | _ -> []
  in
  let rec walk acc from =
    match M.find_first_opt (fun k -> Int64.compare k from >= 0) t.ranges with
    | Some (lo, (l, pay)) when Int64.compare lo hi < 0 ->
        walk ((lo, l, pay) :: acc) (end_ lo (max l 1))
    | _ -> List.rev acc
  in
  below @ walk [] addr

(** Payloads of every range overlapping [addr, addr+len), in address
    order, physically deduplicated. Empty when nothing is known there. *)
let read t ~(addr : int64) ~(len : int) : 'a list =
  match M.find_opt addr t.ranges with
  | Some (l, pay) when l >= len -> [ pay ] (* fast path: an exact-start hit *)
  | _ -> (
      (* the window sits inside a single range *)
      match M.find_last_opt (fun k -> Int64.compare k addr <= 0) t.ranges with
      | Some (lo, (l, pay))
        when Int64.compare (end_ lo l) (end_ addr len) >= 0 ->
          [ pay ]
      | _ ->
          let pays = List.map (fun (_, _, p) -> p) (overlapping t ~addr ~len) in
          List.fold_left
            (fun acc p -> if List.memq p acc then acc else p :: acc)
            [] pays
          |> List.rev)

(* re-attach the parts of an overlapped range that stick out of the
   written window *)
let split_around t ~(addr : int64) ~(len : int) (lo, l, pay) =
  let hi = end_ addr len and rhi = end_ lo l in
  t.ranges <- M.remove lo t.ranges;
  if Int64.compare lo addr < 0 then
    t.ranges <- M.add lo (Int64.to_int (Int64.sub addr lo), pay) t.ranges;
  if Int64.compare rhi hi > 0 then
    t.ranges <- M.add hi (Int64.to_int (Int64.sub rhi hi), pay) t.ranges

(* install [addr, addr+len) -> [pay] over a hole, coalescing with an
   equal-payload left neighbour ending at [addr] and right neighbour
   starting at [addr+len) *)
let install t ~(addr : int64) ~(len : int) (pay : 'a) =
  let lo, len =
    match M.find_last_opt (fun k -> Int64.compare k addr < 0) t.ranges with
    | Some (llo, (ll, lpay))
      when Int64.equal (end_ llo ll) addr && t.eq lpay pay ->
        t.ranges <- M.remove llo t.ranges;
        (llo, ll + len)
    | _ -> (addr, len)
  in
  let len =
    match M.find_opt (end_ lo len) t.ranges with
    | Some (rl, rpay) when t.eq rpay pay ->
        t.ranges <- M.remove (end_ lo len) t.ranges;
        len + rl
    | _ -> len
  in
  t.ranges <- M.add lo (len, pay) t.ranges

(* the general write: split every overlapped range, then install *)
let overwrite t ~(addr : int64) ~(len : int) (pay : 'a) =
  List.iter (split_around t ~addr ~len) (overlapping t ~addr ~len);
  install t ~addr ~len pay

(** Strong update: [addr, addr+len) now carries exactly [pay].
    Overlapped ranges are split; equal-payload neighbours coalesce. *)
let write t ~(addr : int64) ~(len : int) (pay : 'a) : unit =
  if len > 0 then
    (* fast paths: a window one range already covers with an equal
       payload is left as it is; an exact hit is the only range the
       write overlaps, so it is dropped without walking for overlaps *)
    match M.find_opt addr t.ranges with
    | Some (l, old) when l >= len && t.eq old pay -> ()
    | Some (l, _) when l = len ->
        t.ranges <- M.remove addr t.ranges;
        install t ~addr ~len pay
    | Some _ -> overwrite t ~addr ~len pay
    | None -> (
        match M.find_last_opt (fun k -> Int64.compare k addr < 0) t.ranges with
        | Some (lo, (l, old))
          when Int64.compare (end_ lo l) (end_ addr len) >= 0 && t.eq old pay ->
            ()
        | _ -> overwrite t ~addr ~len pay)
