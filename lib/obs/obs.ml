(* Implementation notes: the registry is process-global (the whole tree
   lives in one OCaml process, and scenarios call [reset] between runs),
   and every write path is kept allocation-light — counters are a single
   mutable int field, bumped by the machine once per dispatch chain. *)

type labels = (string * string) list

(* ---------- enable switch + clock ---------- *)

let on = ref true
let set_enabled b = on := b
let enabled () = !on
let clock : (unit -> int64) option ref = ref None
let set_clock c = clock := c
let now_cycles () = match !clock with Some f -> f () | None -> 0L

(* ---------- growable float buffer ---------- *)

module Fbuf = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = [||]; n = 0 }

  let push t x =
    if t.n = Array.length t.a then begin
      let cap = max 16 (2 * t.n) in
      let a' = Array.make cap 0. in
      Array.blit t.a 0 a' 0 t.n;
      t.a <- a'
    end;
    t.a.(t.n) <- x;
    t.n <- t.n + 1

  let to_list t = Array.to_list (Array.sub t.a 0 t.n)
  let snapshot t = Array.sub t.a 0 t.n
end

(* ---------- percentile core (shared with Stats.percentile) ---------- *)

let percentile_sorted a p =
  let n = Array.length a in
  if n = 0 then 0.
  else if n = 1 then a.(0)
  else begin
    let p = if p < 0. then 0. else if p > 100. then 100. else p in
    let rank = p /. 100. *. float_of_int (n - 1) in
    let lo = int_of_float (floor rank) in
    let hi = min (n - 1) (lo + 1) in
    let frac = rank -. float_of_int lo in
    a.(lo) +. (frac *. (a.(hi) -. a.(lo)))
  end

let percentile_list p xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  percentile_sorted a p

(* ---------- series ---------- *)

type counter = { mutable c : int; c_name : string; c_labels : labels }
type gauge = { mutable g : float; g_name : string; g_labels : labels }

type histogram = {
  h_name : string;
  h_labels : labels;
  h_buckets : float array;  (* ascending upper bounds; +Inf implicit *)
  h_counts : int array;  (* length = Array.length h_buckets + 1 *)
  mutable h_sum : float;
  h_values : Fbuf.t;
}

let canon labels = List.sort (fun (a, _) (b, _) -> compare a b) labels

(* Registry key: name plus canonical labels, rendered once. *)
let series_key name labels =
  match labels with
  | [] -> name
  | l ->
      name ^ "{"
      ^ String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) l)
      ^ "}"

let counters : (string, counter) Hashtbl.t = Hashtbl.create 64
let gauges : (string, gauge) Hashtbl.t = Hashtbl.create 16
let histograms : (string, histogram) Hashtbl.t = Hashtbl.create 16

let counter ?(labels = []) name =
  let labels = canon labels in
  let key = series_key name labels in
  match Hashtbl.find_opt counters key with
  | Some c -> c
  | None ->
      let c = { c = 0; c_name = name; c_labels = labels } in
      Hashtbl.replace counters key c;
      c

let incr c = if !on then c.c <- c.c + 1
let add c n = if !on then c.c <- c.c + n
let counter_value c = c.c

let gauge ?(labels = []) name =
  let labels = canon labels in
  let key = series_key name labels in
  match Hashtbl.find_opt gauges key with
  | Some g -> g
  | None ->
      let g = { g = 0.; g_name = name; g_labels = labels } in
      Hashtbl.replace gauges key g;
      g

let set_gauge g v = if !on then g.g <- v
let gauge_value g = g.g

let default_buckets = [ 1.; 10.; 100.; 1e3; 1e4; 1e5; 1e6; 1e7 ]

let histogram ?(labels = []) ?(buckets = default_buckets) name =
  let labels = canon labels in
  let key = series_key name labels in
  match Hashtbl.find_opt histograms key with
  | Some h -> h
  | None ->
      let b = Array.of_list (List.sort_uniq compare buckets) in
      let h =
        {
          h_name = name;
          h_labels = labels;
          h_buckets = b;
          h_counts = Array.make (Array.length b + 1) 0;
          h_sum = 0.;
          h_values = Fbuf.create ();
        }
      in
      Hashtbl.replace histograms key h;
      h

let observe h x =
  if !on then begin
    let nb = Array.length h.h_buckets in
    let i = ref 0 in
    while !i < nb && x > h.h_buckets.(!i) do
      Stdlib.incr i
    done;
    h.h_counts.(!i) <- h.h_counts.(!i) + 1;
    h.h_sum <- h.h_sum +. x;
    Fbuf.push h.h_values x
  end

let hist_count h = h.h_values.Fbuf.n
let hist_sum h = h.h_sum
let hist_values h = Fbuf.to_list h.h_values

let hist_percentile h p =
  let a = Fbuf.snapshot h.h_values in
  Array.sort compare a;
  percentile_sorted a p

(* ---------- spans ---------- *)

(* Cycle durations live in span.cycles{span=NAME} histograms (the
   deterministic axis); host CPU seconds live here, off to the side, so
   the default dump stays reproducible. *)
let span_hosts : (string, Fbuf.t) Hashtbl.t = Hashtbl.create 16
let span_cycle_buckets = [ 10.; 100.; 1e3; 1e4; 1e5; 1e6; 1e7; 1e8 ]

let span_hist name =
  histogram ~labels:[ ("span", name) ] ~buckets:span_cycle_buckets
    "span.cycles"

let span_host name =
  match Hashtbl.find_opt span_hosts name with
  | Some b -> b
  | None ->
      let b = Fbuf.create () in
      Hashtbl.replace span_hosts name b;
      b

let register_span name =
  ignore (span_hist name);
  ignore (span_host name)

let record_span name ~cycles ~seconds =
  observe (span_hist name) cycles;
  if !on then Fbuf.push (span_host name) seconds

let with_span name f =
  if not !on then f ()
  else begin
    let c0 = now_cycles () in
    let t0 = Sys.time () in
    let finish () =
      record_span name
        ~cycles:(Int64.to_float (Int64.sub (now_cycles ()) c0))
        ~seconds:(Sys.time () -. t0)
    in
    match f () with
    | r ->
        finish ();
        r
    | exception e ->
        finish ();
        raise e
  end

let timed_span name f =
  let c0 = now_cycles () in
  let t0 = Sys.time () in
  let r = f () in
  let dt = Sys.time () -. t0 in
  if !on then
    record_span name
      ~cycles:(Int64.to_float (Int64.sub (now_cycles ()) c0))
      ~seconds:dt;
  (r, dt)

let span_cycles name = hist_values (span_hist name)
let span_seconds name = Fbuf.to_list (span_host name)

let span_names () =
  Hashtbl.fold (fun k _ acc -> k :: acc) span_hosts []
  |> List.sort compare

(* ---------- event ring ---------- *)

type event = {
  ev_seq : int;
  ev_clock : int64;
  ev_kind : string;
  ev_detail : string;
}

let ring : event Queue.t = Queue.create ()
let ring_cap = ref 1024
let ring_seq = ref 0
let dropped = ref 0

let trim () =
  while Queue.length ring > !ring_cap do
    ignore (Queue.pop ring);
    Stdlib.incr dropped
  done

let event ~kind detail =
  if !on then begin
    Queue.push
      { ev_seq = !ring_seq; ev_clock = now_cycles (); ev_kind = kind;
        ev_detail = detail }
      ring;
    Stdlib.incr ring_seq;
    trim ()
  end

let events () = List.of_seq (Queue.to_seq ring)

let set_ring_capacity n =
  ring_cap := max 1 n;
  trim ()

let ring_dropped () = !dropped

(* ---------- reset ---------- *)

let reset () =
  Hashtbl.reset counters;
  Hashtbl.reset gauges;
  Hashtbl.reset histograms;
  Hashtbl.reset span_hosts;
  Queue.clear ring;
  ring_seq := 0;
  dropped := 0;
  clock := None

(* ---------- exposition ---------- *)

let buf_json_string b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

(* Deterministic float rendering: integers without a mantissa tail,
   everything else via %.9g (same double ⇒ same string). *)
let json_float f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.9g" f

let buf_labels b labels =
  Buffer.add_char b '{';
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char b ',';
      buf_json_string b k;
      Buffer.add_char b ':';
      buf_json_string b v)
    labels;
  Buffer.add_char b '}'

let sorted_series tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let dump_json ?(host = false) () =
  let b = Buffer.create 4096 in
  let comma_sep f xs =
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_string b ",\n";
        f x)
      xs
  in
  Buffer.add_string b "{\n\"counters\": [\n";
  comma_sep
    (fun (_, c) ->
      Buffer.add_string b "  {\"name\":";
      buf_json_string b c.c_name;
      Buffer.add_string b ",\"labels\":";
      buf_labels b c.c_labels;
      Buffer.add_string b (Printf.sprintf ",\"value\":%d}" c.c))
    (sorted_series counters);
  Buffer.add_string b "\n],\n\"gauges\": [\n";
  comma_sep
    (fun (_, g) ->
      Buffer.add_string b "  {\"name\":";
      buf_json_string b g.g_name;
      Buffer.add_string b ",\"labels\":";
      buf_labels b g.g_labels;
      Buffer.add_string b (",\"value\":" ^ json_float g.g ^ "}"))
    (sorted_series gauges);
  Buffer.add_string b "\n],\n\"histograms\": [\n";
  comma_sep
    (fun (_, h) ->
      Buffer.add_string b "  {\"name\":";
      buf_json_string b h.h_name;
      Buffer.add_string b ",\"labels\":";
      buf_labels b h.h_labels;
      Buffer.add_string b
        (Printf.sprintf ",\"count\":%d,\"sum\":%s" (hist_count h)
           (json_float h.h_sum));
      List.iter
        (fun p ->
          Buffer.add_string b
            (Printf.sprintf ",\"p%g\":%s" p (json_float (hist_percentile h p))))
        [ 50.; 90.; 99. ];
      Buffer.add_string b ",\"buckets\":[";
      Array.iteri
        (fun i le ->
          if i > 0 then Buffer.add_char b ',';
          Buffer.add_string b
            (Printf.sprintf "{\"le\":%s,\"n\":%d}" (json_float le)
               h.h_counts.(i)))
        h.h_buckets;
      if Array.length h.h_buckets > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf "{\"le\":\"+Inf\",\"n\":%d}]}"
           h.h_counts.(Array.length h.h_buckets)))
    (sorted_series histograms);
  Buffer.add_string b "\n],\n\"events\": [\n";
  comma_sep
    (fun e ->
      Buffer.add_string b
        (Printf.sprintf "  {\"seq\":%d,\"clock\":%Ld,\"kind\":" e.ev_seq
           e.ev_clock);
      buf_json_string b e.ev_kind;
      Buffer.add_string b ",\"detail\":";
      buf_json_string b e.ev_detail;
      Buffer.add_char b '}')
    (events ());
  Buffer.add_string b
    (Printf.sprintf "\n],\n\"events_dropped\": %d" !dropped);
  if host then begin
    Buffer.add_string b ",\n\"spans_host_seconds\": {\n";
    comma_sep
      (fun name ->
        let vs = span_seconds name in
        let total = List.fold_left ( +. ) 0. vs in
        let n = List.length vs in
        Buffer.add_string b "  ";
        buf_json_string b name;
        Buffer.add_string b
          (Printf.sprintf ": {\"count\":%d,\"total\":%s,\"mean\":%s}" n
             (json_float total)
             (json_float (if n = 0 then 0. else total /. float_of_int n))))
      (span_names ());
    Buffer.add_string b "\n}"
  end;
  Buffer.add_string b "\n}\n";
  Buffer.contents b

let dump_text () =
  let b = Buffer.create 4096 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  line "== counters ==";
  List.iter (fun (k, c) -> line "  %-44s %d" k c.c)
    (sorted_series counters);
  line "== gauges ==";
  List.iter (fun (k, g) -> line "  %-44s %s" k (json_float g.g))
    (sorted_series gauges);
  line "== histograms ==";
  List.iter
    (fun (k, h) ->
      line "  %-44s count=%d sum=%s p50=%s p90=%s p99=%s" k (hist_count h)
        (json_float h.h_sum)
        (json_float (hist_percentile h 50.))
        (json_float (hist_percentile h 90.))
        (json_float (hist_percentile h 99.)))
    (sorted_series histograms);
  line "== spans (host CPU seconds; non-reproducible axis) ==";
  List.iter
    (fun name ->
      let vs = span_seconds name in
      let n = List.length vs in
      let total = List.fold_left ( +. ) 0. vs in
      line "  %-44s count=%d total=%.6fs mean=%.6fs" name n total
        (if n = 0 then 0. else total /. float_of_int n))
    (span_names ());
  line "== events (%d in ring, %d dropped) ==" (Queue.length ring) !dropped;
  List.iter
    (fun e -> line "  [%4d @%Ld] %-10s %s" e.ev_seq e.ev_clock e.ev_kind e.ev_detail)
    (events ());
  Buffer.contents b
