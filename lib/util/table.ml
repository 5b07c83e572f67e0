(** ASCII table and bar-chart rendering for the benchmark harness.

    Every figure in the paper's evaluation is re-rendered by [bench/main.exe]
    as text; these helpers keep the output aligned and diff-friendly. *)

type align = L | R

(** Display width of a UTF-8 string: its code points, i.e. the bytes
    that do not continue a multi-byte sequence. *)
let display_width s =
  String.fold_left (fun n c -> if Char.code c land 0xC0 = 0x80 then n else n + 1) 0 s

let pad align width s =
  let n = display_width s in
  if n >= width then s
  else
    match align with
    | L -> s ^ String.make (width - n) ' '
    | R -> String.make (width - n) ' ' ^ s

(** [render ~headers ~aligns rows] renders a boxed table. [aligns] defaults
    to left for the first column, right for the rest. *)
let render ?(aligns = []) ~headers rows =
  let ncols = List.length headers in
  let aligns =
    if aligns <> [] then aligns
    else L :: List.init (max 0 (ncols - 1)) (fun _ -> R)
  in
  let all = headers :: rows in
  let width i =
    List.fold_left (fun acc row -> max acc (display_width (List.nth row i))) 0 all
  in
  let widths = List.init ncols width in
  let line ch =
    "+"
    ^ String.concat "+" (List.map (fun w -> String.make (w + 2) ch) widths)
    ^ "+"
  in
  let row cells =
    "| "
    ^ String.concat " | "
        (List.mapi
           (fun i c ->
             let a = try List.nth aligns i with _ -> R in
             pad a (List.nth widths i) c)
           cells)
    ^ " |"
  in
  let b = Buffer.create 256 in
  Buffer.add_string b (line '-');
  Buffer.add_char b '\n';
  Buffer.add_string b (row headers);
  Buffer.add_char b '\n';
  Buffer.add_string b (line '=');
  Buffer.add_char b '\n';
  List.iter
    (fun r ->
      Buffer.add_string b (row r);
      Buffer.add_char b '\n')
    rows;
  Buffer.add_string b (line '-');
  Buffer.contents b

(** Horizontal bar chart: one labelled bar per entry, scaled to [width]. *)
let bars ?(width = 50) ?(unit = "") entries =
  let maxv = List.fold_left (fun acc (_, v) -> max acc v) 1e-9 entries in
  let labw =
    List.fold_left (fun acc (l, _) -> max acc (display_width l)) 0 entries
  in
  let b = Buffer.create 256 in
  List.iter
    (fun (label, v) ->
      let n = int_of_float (Float.round (v /. maxv *. float_of_int width)) in
      Buffer.add_string b
        (Printf.sprintf "%s | %s %.3f%s\n" (pad L labw label) (String.make (max n 0) '#') v unit))
    entries;
  Buffer.contents b

(** Stacked horizontal bars: each entry carries labelled segments, e.g. the
    checkpoint / rewrite / restore breakdown of Figure 6. *)
let stacked_bars ?(width = 60) ?(unit = "s") ~segments entries =
  let seg_chars = [| '#'; '='; ':'; '.'; '+'; '~' |] in
  let total (vs : float list) = List.fold_left ( +. ) 0. vs in
  let maxv = List.fold_left (fun acc (_, vs) -> max acc (total vs)) 1e-9 entries in
  let labw =
    List.fold_left (fun acc (l, _) -> max acc (display_width l)) 0 entries
  in
  let b = Buffer.create 256 in
  Buffer.add_string b "legend: ";
  List.iteri
    (fun i name ->
      Buffer.add_string b (Printf.sprintf "%c=%s  " seg_chars.(i mod 6) name))
    segments;
  Buffer.add_char b '\n';
  List.iter
    (fun (label, vs) ->
      Buffer.add_string b (pad L labw label);
      Buffer.add_string b " | ";
      List.iteri
        (fun i v ->
          let n = int_of_float (Float.round (v /. maxv *. float_of_int width)) in
          Buffer.add_string b (String.make (max n 0) seg_chars.(i mod 6)))
        vs;
      Buffer.add_string b (Printf.sprintf " %.3f%s\n" (total vs) unit))
    entries;
  Buffer.contents b

(** Sparkline-ish time series: x buckets rendered as a column chart with
    [height] rows; used for the Figure 8 throughput timeline. *)
let timeseries ?(height = 12) ~ylabel series =
  (* series : (name, float array) list; all arrays must share a length *)
  let len =
    List.fold_left (fun acc (_, a) -> max acc (Array.length a)) 0 series
  in
  let maxv =
    List.fold_left
      (fun acc (_, a) -> Array.fold_left max acc a)
      1e-9 series
  in
  let chars = [| '*'; 'o'; '+'; 'x' |] in
  let b = Buffer.create 1024 in
  List.iteri
    (fun i (name, _) ->
      Buffer.add_string b (Printf.sprintf "%c = %s   " chars.(i mod 4) name))
    series;
  Buffer.add_char b '\n';
  for row = height downto 1 do
    let thresh = float_of_int row /. float_of_int height *. maxv in
    let lo = float_of_int (row - 1) /. float_of_int height *. maxv in
    if row = height then Buffer.add_string b (Printf.sprintf "%8.1f |" maxv)
    else if row = 1 then Buffer.add_string b (Printf.sprintf "%8.1f |" lo)
    else Buffer.add_string b "         |";
    for x = 0 to len - 1 do
      let cell = ref ' ' in
      List.iteri
        (fun i (_, a) ->
          if x < Array.length a then
            let v = a.(x) in
            if v >= lo +. 1e-12 && (v <= thresh || row = height) then
              cell := chars.(i mod 4))
        series;
      Buffer.add_char b !cell
    done;
    Buffer.add_char b '\n'
  done;
  Buffer.add_string b ("         +" ^ String.make len '-' ^ "> " ^ ylabel ^ "\n");
  Buffer.contents b

let human_bytes n =
  if n < 1024 then Printf.sprintf "%dB" n
  else if n < 1024 * 1024 then Printf.sprintf "%.1fKB" (float_of_int n /. 1024.)
  else Printf.sprintf "%.2fMB" (float_of_int n /. 1024. /. 1024.)
