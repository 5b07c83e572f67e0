(** ltpd — the Lighttpd stand-in: event-driven, single-process web server
    with a WebDAV extension (paper §4, "Lighttpd has an event-driven
    single-process architecture", evaluated at v1.4.59 with the WebDAV
    module enabled).

    Phase structure mirrors the real thing:
    - initialization: parse /etc/ltpd.conf, build the mimetype table,
      set up the connection cache, bind the socket — all code that is
      dead after boot (the red blocks of Figure 2b);
    - [server_main_loop] (the transition point named in §3.1): the
      accept/dispatch loop with a big method switch whose default lands
      on the exported [ltpd_403] label — DynaCut's redirect target. *)

open Dsl

let port = 8080
let ready_banner = "lighttpd: server started"

(* upload slots for the WebDAV PUT feature *)
let upload_slots = 8
let slot_name = 32
let slot_data = 128
let slot_size = slot_name + slot_data + 8 (* name, data, used flag *)

let globals () =
  Httplib.globals ()
  @ [
      global_q "cfg_port" [ Int64.of_int port ];
      global_q "cfg_maxconn" [ 0L ];
      global_q "cfg_keepalive" [ 0L ];
      global_q "cfg_loglevel" [ 0L ];
      global_zero "cfg_docroot" 64;
      global_zero "cfg_buf" 1024;
      global_zero "mime_table" (32 * 16);
      global_q "mime_count" [ 0L ];
      global_q "cache_base" [ 0L ];
      global_q "requests_served" [ 0L ];
      global_zero "uploads" (upload_slots * slot_size);
      global_q "auth_enabled" [ 0L ];
    ]

(* ---------- initialization-phase code ---------- *)

let init_funcs () =
  [
    (* read /etc/ltpd.conf into cfg_buf *)
    func "ltpd_read_config" []
      [
        decl "fd" (call "open" [ s "/etc/ltpd.conf" ]);
        when_ (v "fd" <: i 0) [ do_ "puts" [ s "ltpd: no config" ]; ret (neg (i 1)) ];
        decl "n" (call "read" [ v "fd"; addr "cfg_buf"; i 1023 ]);
        store8 (addr "cfg_buf" +: v "n") (i 0);
        do_ "close" [ v "fd" ];
        ret (v "n");
      ];
    (* parse "key=value" lines *)
    func "ltpd_parse_config" []
      [
        decl "p" (addr "cfg_buf");
        while_ (load8 (v "p") <>: i 0)
          [
            when_
              (call "strncmp" [ v "p"; s "port="; i 5 ] ==: i 0)
              [ set "cfg_port" (call "atoi" [ v "p" +: i 5 ]) ];
            when_
              (call "strncmp" [ v "p"; s "maxconn="; i 8 ] ==: i 0)
              [ set "cfg_maxconn" (call "atoi" [ v "p" +: i 8 ]) ];
            when_
              (call "strncmp" [ v "p"; s "keepalive="; i 10 ] ==: i 0)
              [ set "cfg_keepalive" (call "atoi" [ v "p" +: i 10 ]) ];
            when_
              (call "strncmp" [ v "p"; s "loglevel="; i 9 ] ==: i 0)
              [ set "cfg_loglevel" (call "atoi" [ v "p" +: i 9 ]) ];
            when_
              (call "strncmp" [ v "p"; s "docroot="; i 8 ] ==: i 0)
              [
                decl "k" (i 0);
                decl "q" (v "p" +: i 8);
                while_
                  ((load8 (v "q") <>: i 10) &&: (load8 (v "q") <>: i 0) &&: (v "k" <: i 63))
                  [
                    store8 (addr "cfg_docroot" +: v "k") (load8 (v "q"));
                    set "k" (v "k" +: i 1);
                    set "q" (v "q" +: i 1);
                  ];
                store8 (addr "cfg_docroot" +: v "k") (i 0);
              ];
            (* skip to next line *)
            while_ ((load8 (v "p") <>: i 10) &&: (load8 (v "p") <>: i 0))
              [ set "p" (v "p" +: i 1) ];
            when_ (load8 (v "p") ==: i 10) [ set "p" (v "p" +: i 1) ];
          ];
        ret0;
      ];
    (* one mimetype registration: copies ext into the table *)
    func "ltpd_mime_add" [ "ext"; "id" ]
      [
        decl "slot" (addr "mime_table" +: (v "mime_count" *: i 16));
        decl "k" (i 0);
        while_ ((load8 (v "ext" +: v "k") <>: i 0) &&: (v "k" <: i 7))
          [
            store8 (v "slot" +: v "k") (load8 (v "ext" +: v "k"));
            set "k" (v "k" +: i 1);
          ];
        store8 (v "slot" +: v "k") (i 0);
        store64 (v "slot" +: i 8) (v "id");
        set "mime_count" (v "mime_count" +: i 1);
        ret0;
      ];
    func "ltpd_build_mime_table" []
      [
        do_ "ltpd_mime_add" [ s "html"; i 1 ];
        do_ "ltpd_mime_add" [ s "txt"; i 2 ];
        do_ "ltpd_mime_add" [ s "css"; i 3 ];
        do_ "ltpd_mime_add" [ s "js"; i 4 ];
        do_ "ltpd_mime_add" [ s "png"; i 5 ];
        do_ "ltpd_mime_add" [ s "jpg"; i 6 ];
        do_ "ltpd_mime_add" [ s "gif"; i 7 ];
        do_ "ltpd_mime_add" [ s "ico"; i 8 ];
        ret (v "mime_count");
      ];
    (* allocate and scrub the connection cache *)
    func "ltpd_init_cache" []
      [
        decl "sz" (i 65536);
        set "cache_base" (call "mmap" [ i 0; v "sz"; i 6 ]);
        do_ "memset" [ v "cache_base"; i 0; i 4096 ];
        (* free-list threading through the cache *)
        decl "k" (i 0);
        while_ (v "k" <: i 63)
          [
            store64
              (v "cache_base" +: (v "k" *: i 1024))
              (v "cache_base" +: ((v "k" +: i 1) *: i 1024));
            set "k" (v "k" +: i 1);
          ];
        ret (v "cache_base");
      ];
    func "ltpd_init_uploads" []
      [
        do_ "memset" [ addr "uploads"; i 0; i (upload_slots * slot_size) ];
        ret0;
      ];
    func "ltpd_setup_socket" []
      [
        decl "sfd" (call "socket" []);
        do_ "bind" [ v "sfd"; v "cfg_port" ];
        do_ "listen" [ v "sfd" ];
        ret (v "sfd");
      ];
  ]

(* ---------- serving-phase code ---------- *)

let serve_funcs () =
  [
    (* file lookup under the docroot; body copied into http_obuf tail *)
    func "ltpd_open_docfile" []
      [
        do_ "strcpy" [ addr "http_file"; addr "cfg_docroot" ];
        decl "n" (call "strlen" [ addr "http_file" ]);
        do_ "strcpy" [ addr "http_file" +: v "n"; addr "http_path" ];
        ret (call "open" [ addr "http_file" ]);
      ];
    (* WebDAV upload slot lookup by path; returns slot addr or 0 *)
    func "ltpd_find_upload" []
      [
        decl "k" (i 0);
        while_ (v "k" <: i upload_slots)
          [
            decl "slot" (addr "uploads" +: (v "k" *: i slot_size));
            when_
              ((load64 (v "slot" +: i (slot_name + slot_data)) ==: i 1)
              &&: (call "strcmp" [ v "slot"; addr "http_path" ] ==: i 0))
              [ ret (v "slot") ];
            set "k" (v "k" +: i 1);
          ];
        ret (i 0);
      ];
    (* scan request headers for a prefix; returns its offset or -1 *)
    func "ltpd_find_header" [ "name"; "nlen" ]
      [
        decl "k" (i 0);
        while_ (load8 (addr "http_rbuf" +: v "k") <>: i 0)
          [
            when_
              (call "strncmp" [ addr "http_rbuf" +: v "k"; v "name"; v "nlen" ] ==: i 0)
              [ ret (v "k" +: v "nlen") ];
            set "k" (v "k" +: i 1);
          ];
        ret (neg (i 1));
      ];
    func "ltpd_handle_get" [ "c" ]
      [
        (* uploads shadow the docroot *)
        decl "slot" (call "ltpd_find_upload" []);
        when_ (v "slot" <>: i 0)
          [ ret (call "http_reply" [ v "c"; s Httplib.st_200; v "slot" +: i slot_name ]) ];
        decl "fd" (call "ltpd_open_docfile" []);
        when_ (v "fd" <: i 0)
          [ ret (call "http_reply" [ v "c"; s Httplib.st_404; s "not found" ]) ];
        decl "n" (call "read" [ v "fd"; addr "http_file"; i 255 ]);
        store8 (addr "http_file" +: v "n") (i 0);
        do_ "close" [ v "fd" ];
        set "requests_served" (v "requests_served" +: i 1);
        (* conditional GET (mod_expire) — our clients never send it *)
        when_
          (call "ltpd_find_header" [ s "If-None-Match: "; i 15 ] >=: i 0)
          [
            decl "etag" (call "ltpd_etag_compute" [ addr "http_file"; v "n" ]);
            expr (v "etag");
            ret (call "http_reply" [ v "c"; s "HTTP/1.0 304 Not Modified\r\n"; i 0 ]);
          ];
        (* compression (mod_deflate) — never negotiated by our clients *)
        when_
          (call "ltpd_find_header" [ s "Accept-Encoding: gzip"; i 21 ] >=: i 0)
          [ do_ "ltpd_gzip_body" [ addr "http_file"; v "n" ] ];
        (* partial content — never requested *)
        decl "range" (call "ltpd_parse_range" []);
        when_ (v "range" >=: i 0)
          [
            ret
              (call "http_reply"
                 [ v "c"; s "HTTP/1.0 206 Partial Content\r\n"; addr "http_file" +: v "range" ]);
          ];
        ret (call "http_reply" [ v "c"; s Httplib.st_200; addr "http_file" ]);
      ];
    func "ltpd_handle_head" [ "c" ]
      [
        decl "fd" (call "ltpd_open_docfile" []);
        when_ (v "fd" <: i 0)
          [ ret (call "http_reply" [ v "c"; s Httplib.st_404; i 0 ]) ];
        do_ "close" [ v "fd" ];
        ret (call "http_reply" [ v "c"; s Httplib.st_200; i 0 ]);
      ];
    func "ltpd_handle_post" [ "c" ]
      [
        decl "body" (call "http_body" []);
        when_ (v "body" ==: i 0)
          [ ret (call "http_reply" [ v "c"; s Httplib.st_200; s "empty" ]) ];
        ret (call "http_reply" [ v "c"; s Httplib.st_200; v "body" ]);
      ];
    (* WebDAV PUT: store body into an upload slot (the data-write feature
       the paper disables in read-only windows) *)
    func "ltpd_dav_put" [ "c" ]
      [
        label "ltpd_feat_put";
        decl "body" (call "http_body" []);
        when_ (v "body" ==: i 0)
          [ ret (call "http_reply" [ v "c"; s Httplib.st_403; s "no body" ]) ];
        (* reuse existing slot or claim a free one *)
        decl "slot" (call "ltpd_find_upload" []);
        when_ (v "slot" ==: i 0)
          [
            decl "k" (i 0);
            while_ ((v "k" <: i upload_slots) &&: (v "slot" ==: i 0))
              [
                decl "cand" (addr "uploads" +: (v "k" *: i slot_size));
                when_ (load64 (v "cand" +: i (slot_name + slot_data)) ==: i 0)
                  [ set "slot" (v "cand") ];
                set "k" (v "k" +: i 1);
              ];
          ];
        when_ (v "slot" ==: i 0)
          [ ret (call "http_reply" [ v "c"; s Httplib.st_403; s "full" ]) ];
        do_ "strcpy" [ v "slot"; addr "http_path" ];
        decl "k2" (i 0);
        while_ ((load8 (v "body" +: v "k2") <>: i 0) &&: (v "k2" <: i (slot_data - 1)))
          [
            store8 (v "slot" +: i slot_name +: v "k2") (load8 (v "body" +: v "k2"));
            set "k2" (v "k2" +: i 1);
          ];
        store8 (v "slot" +: i slot_name +: v "k2") (i 0);
        store64 (v "slot" +: i (slot_name + slot_data)) (i 1);
        ret (call "http_reply" [ v "c"; s Httplib.st_201; s "stored" ]);
      ];
    func "ltpd_dav_delete" [ "c" ]
      [
        label "ltpd_feat_delete";
        decl "slot" (call "ltpd_find_upload" []);
        when_ (v "slot" ==: i 0)
          [ ret (call "http_reply" [ v "c"; s Httplib.st_404; i 0 ]) ];
        store64 (v "slot" +: i (slot_name + slot_data)) (i 0);
        ret (call "http_reply" [ v "c"; s Httplib.st_204; i 0 ]);
      ];
    func "ltpd_handle_options" [ "c" ]
      [
        ret
          (call "http_reply"
             [ v "c"; s Httplib.st_200; s "Allow: GET,HEAD,POST,PUT,DELETE,OPTIONS" ]);
      ];
    func "ltpd_dav_propfind" [ "c" ]
      [ ret (call "http_reply" [ v "c"; s Httplib.st_207; s "<multistatus/>" ]) ];
    (* -------- mod_* features: present and reachable in the binary but
       never exercised by our workloads — the gray blocks of Figure 2b.
       Real Lighttpd ships mod_cgi, mod_auth, mod_rewrite, mod_proxy,
       mod_deflate, mod_expire, mod_status, mod_ssi and more, and a
       typical deployment uses almost none of them. -------- *)
    func "ltpd_cgi_build_env" []
      [
        (* SCRIPT_NAME= + path, QUERY_STRING= ... into the cache area *)
        decl "env" (v "cache_base" +: i 8192);
        do_ "strcpy" [ v "env"; s "SCRIPT_NAME=" ];
        decl "n" (call "strlen" [ v "env" ]);
        do_ "strcpy" [ v "env" +: v "n"; addr "http_path" ];
        decl "q" (call "strchr_idx" [ addr "http_path"; i 63 (* '?' *) ]);
        when_ (v "q" >=: i 0)
          [
            set "n" (call "strlen" [ v "env" ]);
            do_ "strcpy" [ v "env" +: v "n"; s " QUERY_STRING=" ];
            set "n" (call "strlen" [ v "env" ]);
            do_ "strcpy" [ v "env" +: v "n"; addr "http_path" +: v "q" +: i 1 ];
          ];
        ret (v "env");
      ];
    func "ltpd_handle_cgi" [ "c" ]
      [
        decl "env" (call "ltpd_cgi_build_env" []);
        expr (v "env");
        decl "fd" (call "ltpd_open_docfile" []);
        when_ (v "fd" <: i 0)
          [ ret (call "http_reply" [ v "c"; s Httplib.st_404; s "no script" ]) ];
        decl "n" (call "read" [ v "fd"; addr "http_file"; i 255 ]);
        store8 (addr "http_file" +: v "n") (i 0);
        do_ "close" [ v "fd" ];
        ret (call "http_reply" [ v "c"; s Httplib.st_200; addr "http_file" ]);
      ];
    func "ltpd_auth_decode_basic" [ "src"; "dst" ]
      [
        (* toy base64-ish decode: rotate each byte *)
        decl "k" (i 0);
        decl "ch" (load8 (v "src"));
        while_ ((v "ch" <>: i 0) &&: (v "k" <: i 63))
          [
            store8 (v "dst" +: v "k") ((v "ch" +: i 13) &: i 127);
            set "k" (v "k" +: i 1);
            set "ch" (load8 (v "src" +: v "k"));
          ];
        store8 (v "dst" +: v "k") (i 0);
        ret (v "k");
      ];
    func "ltpd_auth_check" [ "c" ]
      [
        when_ (v "auth_enabled" ==: i 0) [ ret (i 1) ];
        decl "cred" (v "cache_base" +: i 12288);
        do_ "ltpd_auth_decode_basic" [ addr "http_rbuf"; v "cred" ];
        when_
          (call "strcmp" [ v "cred"; s "admin:hunter2" ] ==: i 0)
          [ ret (i 1) ];
        ret (call "http_reply" [ v "c"; s Httplib.st_403; s "auth required" ]);
      ];
    func "ltpd_rewrite_url" []
      [
        decl "n" (call "strlen" [ addr "http_path" ]);
        when_ (v "n" >: i 200) [ store8 (addr "http_path" +: i 200) (i 0) ];
        (* /old/... -> /new/... *)
        when_
          (call "strncmp" [ addr "http_path"; s "/old/"; i 5 ] ==: i 0)
          [
            store8 (addr "http_path" +: i 1) (i 110);
            store8 (addr "http_path" +: i 2) (i 101);
            store8 (addr "http_path" +: i 3) (i 119);
          ];
        ret0;
      ];
    (* mod_deflate: toy RLE "compression" into the cache *)
    func "ltpd_gzip_body" [ "src"; "len" ]
      [
        decl "out" (v "cache_base" +: i 16384);
        decl "k" (i 0);
        decl "o" (i 0);
        while_ (v "k" <: v "len")
          [
            decl "ch" (load8 (v "src" +: v "k"));
            decl "run" (i 1);
            while_
              ((v "k" +: v "run" <: v "len")
              &&: (load8 (v "src" +: v "k" +: v "run") ==: v "ch")
              &&: (v "run" <: i 255))
              [ set "run" (v "run" +: i 1) ];
            store8 (v "out" +: v "o") (v "run");
            store8 (v "out" +: v "o" +: i 1) (v "ch");
            set "o" (v "o" +: i 2);
            set "k" (v "k" +: v "run");
          ];
        ret (v "o");
      ];
    (* mod_expire: etag + cache-control computation *)
    func "ltpd_etag_compute" [ "p"; "len" ]
      [
        decl "h" (i 2166136261);
        decl "k" (i 0);
        while_ (v "k" <: v "len")
          [
            set "h" ((v "h" ^: load8 (v "p" +: v "k")) *: i 16777619);
            set "k" (v "k" +: i 1);
          ];
        ret (v "h" &: i 0x7fffffff);
      ];
    (* mod_status: statistics page *)
    func "ltpd_status_page" [ "c" ]
      [
        (* built in http_file: http_reply composes in http_obuf, so the
           body must live elsewhere *)
        do_ "strcpy" [ addr "http_file"; s "uptime=" ];
        decl "n" (call "strlen" [ addr "http_file" ]);
        set "n" (v "n" +: call "itoa" [ addr "http_file" +: v "n"; call "gettime" [] ]);
        do_ "strcpy" [ addr "http_file" +: v "n"; s " served=" ];
        set "n" (call "strlen" [ addr "http_file" ]);
        do_ "itoa" [ addr "http_file" +: v "n"; v "requests_served" ];
        ret (call "http_reply" [ v "c"; s Httplib.st_200; addr "http_file" ]);
      ];
    (* mod_proxy: upstream forwarding (no upstream configured -> 404) *)
    func "ltpd_proxy_pass" [ "c" ]
      [
        decl "up" (call "socket" []);
        when_ (v "up" <: i 0)
          [ ret (call "http_reply" [ v "c"; s Httplib.st_404; s "bad gateway" ]) ];
        do_ "close" [ v "up" ];
        ret (call "http_reply" [ v "c"; s Httplib.st_404; s "no upstream" ]);
      ];
    (* Range: header parsing for partial GETs *)
    func "ltpd_parse_range" []
      [
        decl "p" (addr "http_rbuf");
        decl "k" (i 0);
        while_ (load8 (v "p" +: v "k") <>: i 0)
          [
            when_
              (call "strncmp" [ v "p" +: v "k"; s "Range: bytes="; i 13 ] ==: i 0)
              [ ret (call "atoi" [ v "p" +: v "k" +: i 13 ]) ];
            set "k" (v "k" +: i 1);
          ];
        ret (neg (i 1));
      ];
    (* directory listing for trailing-slash paths *)
    func "ltpd_dirlist" [ "c" ]
      [
        do_ "strcpy" [ addr "http_file"; s "<ul>" ];
        decl "k" (i 0);
        while_ (v "k" <: v "mime_count")
          [
            decl "n" (call "strlen" [ addr "http_file" ]);
            do_ "strcpy" [ addr "http_file" +: v "n"; s "<li>entry</li>" ];
            set "k" (v "k" +: i 1);
          ];
        decl "n2" (call "strlen" [ addr "http_file" ]);
        do_ "strcpy" [ addr "http_file" +: v "n2"; s "</ul>" ];
        ret (call "http_reply" [ v "c"; s Httplib.st_200; addr "http_file" ]);
      ];
    (* log rotation, triggered by a (never sent) admin request *)
    func "ltpd_log_rotate" []
      [
        decl "fd" (call "open" [ s "/var/log/ltpd.log" ]);
        when_ (v "fd" >=: i 0) [ do_ "close" [ v "fd" ] ];
        ret0;
      ];
    (* the request dispatcher: the big switch with the in-function 403
       error path at the exported label *)
    func "ltpd_dispatch" [ "c" ]
      [
        decl "m" (call "http_parse_method" []);
        do_ "http_parse_path" [];
        do_ "ltpd_rewrite_url" [];
        (* auth is disabled in the shipped config: the check returns
           immediately, its verification half stays cold *)
        when_ (call "ltpd_auth_check" [ v "c" ] ==: i 0) [ ret (i 0) ];
        switch (v "m")
          [
            ( Httplib.m_get,
              [
                if_
                  (call "strncmp" [ addr "http_path"; s "/cgi-bin/"; i 9 ] ==: i 0)
                  [ do_ "ltpd_handle_cgi" [ v "c" ] ]
                  [
                    if_
                      (call "strcmp" [ addr "http_path"; s "/server-status" ] ==: i 0)
                      [ do_ "ltpd_status_page" [ v "c" ] ]
                      [
                        if_
                          (call "strncmp" [ addr "http_path"; s "/proxy/"; i 7 ] ==: i 0)
                          [ do_ "ltpd_proxy_pass" [ v "c" ] ]
                          [
                            if_
                              (call "strcmp" [ addr "http_path"; s "/" ] ==: i 0)
                              [ do_ "ltpd_dirlist" [ v "c" ] ]
                              [
                                when_
                                  (call "strcmp" [ addr "http_path"; s "/admin/rotate" ] ==: i 0)
                                  [ do_ "ltpd_log_rotate" [] ];
                                do_ "ltpd_handle_get" [ v "c" ];
                              ];
                          ];
                      ];
                  ];
              ] );
            (Httplib.m_head, [ do_ "ltpd_handle_head" [ v "c" ] ]);
            (Httplib.m_post, [ do_ "ltpd_handle_post" [ v "c" ] ]);
            (Httplib.m_put, [ do_ "ltpd_dav_put" [ v "c" ] ]);
            (Httplib.m_delete, [ do_ "ltpd_dav_delete" [ v "c" ] ]);
            (Httplib.m_options, [ do_ "ltpd_handle_options" [ v "c" ] ]);
            (Httplib.m_propfind, [ do_ "ltpd_dav_propfind" [ v "c" ] ]);
          ]
          ~default:
            [
              label "ltpd_403";
              do_ "http_reply" [ v "c"; s Httplib.st_403; s "forbidden" ];
            ];
        ret0;
      ];
    (* the transition point, named after Lighttpd's server_main_loop() *)
    func "server_main_loop" [ "sfd" ]
      [
        forever
          [
            decl "c" (call "accept" [ v "sfd" ]);
            decl "n" (call "recv" [ v "c"; addr "http_rbuf"; i 1023 ]);
            when_ (v "n" >: i 0)
              [
                store8 (addr "http_rbuf" +: v "n") (i 0);
                do_ "ltpd_dispatch" [ v "c" ];
              ];
            do_ "close" [ v "c" ];
          ];
        ret0;
      ];
    func "main" []
      [
        do_ "ltpd_read_config" [];
        do_ "ltpd_parse_config" [];
        do_ "ltpd_build_mime_table" [];
        do_ "ltpd_init_cache" [];
        do_ "ltpd_init_uploads" [];
        decl "sfd" (call "ltpd_setup_socket" []);
        do_ "puts" [ s ready_banner ];
        do_ "server_main_loop" [ v "sfd" ];
        ret0;
      ];
  ]

let unit_ltpd () =
  unit_ "ltpd" ~globals:(globals ()) (Httplib.funcs () @ init_funcs () @ serve_funcs ())

let config =
  "port=8080\nmaxconn=64\nkeepalive=1\nloglevel=2\ndocroot=/www\n"

let site_files =
  [
    ("/www/index.html", "<html><body>hello from ltpd</body></html>");
    ("/www/about.txt", "ltpd test site");
    ("/www/style.css", "body { color: black }");
  ]

(** The files ltpd reads besides its binary: its config and the docroot. *)
let files = ("/etc/ltpd.conf", config) :: site_files
