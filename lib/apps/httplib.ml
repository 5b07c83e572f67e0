(** Shared MiniC HTTP plumbing, statically linked into each web server
    (each binary gets its own copy, as real servers do).

    Method ids follow the dispatcher convention both servers use in their
    big switch-case request handler (paper §3.1: "most server programs
    handle different requests (features) using a big switch-case
    statement"). *)

open Dsl

let m_get = 1
let m_head = 2
let m_post = 3
let m_put = 4
let m_delete = 5
let m_options = 6
let m_propfind = 7
let m_mkcol = 8

let method_name = function
  | 1 -> "GET"
  | 2 -> "HEAD"
  | 3 -> "POST"
  | 4 -> "PUT"
  | 5 -> "DELETE"
  | 6 -> "OPTIONS"
  | 7 -> "PROPFIND"
  | 8 -> "MKCOL"
  | _ -> "?"

(** Globals every HTTP app needs. *)
let globals () =
  [
    global_zero "http_rbuf" 1024;
    global_zero "http_path" 256;
    global_zero "http_file" 256;
    global_zero "http_obuf" 2048;
    global_zero "http_num" 32;
  ]

(** MiniC helper functions (prefix [http_]). *)
let funcs () =
  [
    (* parse the method word of the request in http_rbuf; returns id or 0 *)
    func "http_parse_method" []
      [
        when_ (call "strncmp" [ addr "http_rbuf"; s "GET "; i 4 ] ==: i 0) [ ret (i m_get) ];
        when_ (call "strncmp" [ addr "http_rbuf"; s "HEAD "; i 5 ] ==: i 0) [ ret (i m_head) ];
        when_ (call "strncmp" [ addr "http_rbuf"; s "POST "; i 5 ] ==: i 0) [ ret (i m_post) ];
        when_ (call "strncmp" [ addr "http_rbuf"; s "PUT "; i 4 ] ==: i 0) [ ret (i m_put) ];
        when_
          (call "strncmp" [ addr "http_rbuf"; s "DELETE "; i 7 ] ==: i 0)
          [ ret (i m_delete) ];
        when_
          (call "strncmp" [ addr "http_rbuf"; s "OPTIONS "; i 8 ] ==: i 0)
          [ ret (i m_options) ];
        when_
          (call "strncmp" [ addr "http_rbuf"; s "PROPFIND "; i 9 ] ==: i 0)
          [ ret (i m_propfind) ];
        when_ (call "strncmp" [ addr "http_rbuf"; s "MKCOL "; i 6 ] ==: i 0) [ ret (i m_mkcol) ];
        ret (i 0);
      ];
    (* copy the request path (second token) into http_path *)
    func "http_parse_path" []
      [
        decl "p" (addr "http_rbuf");
        (* skip method word *)
        while_ ((load8 (v "p") <>: i 32) &&: (load8 (v "p") <>: i 0))
          [ set "p" (v "p" +: i 1) ];
        when_ (load8 (v "p") ==: i 32) [ set "p" (v "p" +: i 1) ];
        decl "k" (i 0);
        decl "ch" (load8 (v "p"));
        while_
          ((v "ch" <>: i 32) &&: (v "ch" <>: i 13) &&: (v "ch" <>: i 10)
          &&: (v "ch" <>: i 0) &&: (v "k" <: i 255))
          [
            store8 (addr "http_path" +: v "k") (v "ch");
            set "k" (v "k" +: i 1);
            set "p" (v "p" +: i 1);
            set "ch" (load8 (v "p"));
          ];
        store8 (addr "http_path" +: v "k") (i 0);
        ret (v "k");
      ];
    (* locate the request body (after the blank line); returns pointer or 0 *)
    func "http_body" []
      [
        decl "p" (addr "http_rbuf");
        while_ (load8 (v "p") <>: i 0)
          [
            when_
              ((load8 (v "p") ==: i 10) &&: (load8 (v "p" +: i 1) ==: i 10))
              [ ret (v "p" +: i 2) ];
            when_
              ((load8 (v "p") ==: i 13)
              &&: (load8 (v "p" +: i 1) ==: i 10)
              &&: (load8 (v "p" +: i 2) ==: i 13)
              &&: (load8 (v "p" +: i 3) ==: i 10))
              [ ret (v "p" +: i 4) ];
            set "p" (v "p" +: i 1);
          ];
        ret (i 0);
      ];
    (* send a canned status line + header + body *)
    func "http_reply" [ "c"; "status_line"; "body" ]
      [
        do_ "strcpy" [ addr "http_obuf"; v "status_line" ];
        decl "n" (call "strlen" [ addr "http_obuf" ]);
        do_ "strcpy" [ addr "http_obuf" +: v "n"; s "Server: vxhttp\r\n\r\n" ];
        set "n" (call "strlen" [ addr "http_obuf" ]);
        when_ (v "body" <>: i 0)
          [
            do_ "strcpy" [ addr "http_obuf" +: v "n"; v "body" ];
            set "n" (call "strlen" [ addr "http_obuf" ]);
          ];
        ret (call "send" [ v "c"; addr "http_obuf"; v "n" ]);
      ];
  ]

(* Canned status lines *)
let st_200 = "HTTP/1.0 200 OK\r\n"
let st_201 = "HTTP/1.0 201 Created\r\n"
let st_204 = "HTTP/1.0 204 No Content\r\n"
let st_207 = "HTTP/1.0 207 Multi-Status\r\n"
let st_403 = "HTTP/1.0 403 Forbidden\r\n"
let st_404 = "HTTP/1.0 404 Not Found\r\n"
let st_405 = "HTTP/1.0 405 Method Not Allowed\r\n"
let st_503 = "HTTP/1.0 503 Service Unavailable\r\n"
