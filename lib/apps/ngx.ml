(** ngx — the Nginx stand-in: master/worker architecture (paper §4:
    "Nginx uses multiple processes, organized in a master-worker style",
    v1.18.0 with the WebDAV extension, configured with one worker as in
    the paper's §4.2 footnote).

    The master parses a larger configuration than ltpd (server blocks,
    locations, upstreams, module init chain) — which is why Figure 9
    shows Nginx with the larger init-code fraction (56% vs 46%). The
    worker's request handler dispatches WebDAV methods through
    [ngx_http_dav_handler], a direct transcription of the paper's
    Listing 1, with the default error path at the exported
    [ngx_declined] label. *)

open Dsl

let port = 8090
let ready_banner = "nginx: workers ready"

let globals () =
  Httplib.globals ()
  @ [
      global_q "cfg_port" [ Int64.of_int port ];
      global_q "cfg_workers" [ 1L ];
      global_q "cfg_gzip" [ 0L ];
      global_q "cfg_sendfile" [ 0L ];
      global_q "cfg_timeout" [ 0L ];
      global_zero "cfg_docroot" 64;
      global_zero "cfg_buf" 2048;
      global_zero "locations" (16 * 72);
      global_q "location_count" [ 0L ];
      global_zero "upstreams" (8 * 32);
      global_q "upstream_count" [ 0L ];
      global_zero "mime_hash" (64 * 8);
      global_q "pool_base" [ 0L ];
      global_q "log_fd" [ 0L ];
      global_q "is_worker" [ 0L ];
      global_zero "dav_store" (8 * 168);
      global_q "modules_inited" [ 0L ];
    ]

let slot_name = 32
let slot_data = 128
let slot_size = slot_name + slot_data + 8

(* ---------- master initialization ---------- *)

let init_funcs () =
  [
    func "ngx_read_config" []
      [
        decl "fd" (call "open" [ s "/etc/nginx.conf" ]);
        when_ (v "fd" <: i 0) [ do_ "puts" [ s "nginx: no config" ]; ret (neg (i 1)) ];
        decl "n" (call "read" [ v "fd"; addr "cfg_buf"; i 2047 ]);
        store8 (addr "cfg_buf" +: v "n") (i 0);
        do_ "close" [ v "fd" ];
        ret (v "n");
      ];
    func "ngx_conf_int" [ "p"; "key"; "klen" ]
      [
        when_ (call "strncmp" [ v "p"; v "key"; v "klen" ] ==: i 0)
          [ ret (call "atoi" [ v "p" +: v "klen" ]) ];
        ret (neg (i 1));
      ];
    func "ngx_parse_config" []
      [
        decl "p" (addr "cfg_buf");
        decl "x" (i 0);
        while_ (load8 (v "p") <>: i 0)
          [
            set "x" (call "ngx_conf_int" [ v "p"; s "listen "; i 7 ]);
            when_ (v "x" >=: i 0) [ set "cfg_port" (v "x") ];
            set "x" (call "ngx_conf_int" [ v "p"; s "worker_processes "; i 17 ]);
            when_ (v "x" >=: i 0) [ set "cfg_workers" (v "x") ];
            set "x" (call "ngx_conf_int" [ v "p"; s "gzip "; i 5 ]);
            when_ (v "x" >=: i 0) [ set "cfg_gzip" (v "x") ];
            set "x" (call "ngx_conf_int" [ v "p"; s "sendfile "; i 9 ]);
            when_ (v "x" >=: i 0) [ set "cfg_sendfile" (v "x") ];
            set "x" (call "ngx_conf_int" [ v "p"; s "keepalive_timeout "; i 18 ]);
            when_ (v "x" >=: i 0) [ set "cfg_timeout" (v "x") ];
            when_
              (call "strncmp" [ v "p"; s "root "; i 5 ] ==: i 0)
              [
                decl "k" (i 0);
                decl "q" (v "p" +: i 5);
                while_
                  ((load8 (v "q") <>: i 10)
                  &&: (load8 (v "q") <>: i 59 (* ';' *))
                  &&: (load8 (v "q") <>: i 0) &&: (v "k" <: i 63))
                  [
                    store8 (addr "cfg_docroot" +: v "k") (load8 (v "q"));
                    set "k" (v "k" +: i 1);
                    set "q" (v "q" +: i 1);
                  ];
                store8 (addr "cfg_docroot" +: v "k") (i 0);
              ];
            when_
              (call "strncmp" [ v "p"; s "location "; i 9 ] ==: i 0)
              [ do_ "ngx_add_location" [ v "p" +: i 9 ] ];
            when_
              (call "strncmp" [ v "p"; s "upstream "; i 9 ] ==: i 0)
              [ do_ "ngx_add_upstream" [ v "p" +: i 9 ] ];
            while_ ((load8 (v "p") <>: i 10) &&: (load8 (v "p") <>: i 0))
              [ set "p" (v "p" +: i 1) ];
            when_ (load8 (v "p") ==: i 10) [ set "p" (v "p" +: i 1) ];
          ];
        ret0;
      ];
    func "ngx_add_location" [ "src" ]
      [
        decl "slot" (addr "locations" +: (v "location_count" *: i 72));
        decl "k" (i 0);
        while_
          ((load8 (v "src" +: v "k") <>: i 32)
          &&: (load8 (v "src" +: v "k") <>: i 10)
          &&: (load8 (v "src" +: v "k") <>: i 0) &&: (v "k" <: i 63))
          [
            store8 (v "slot" +: v "k") (load8 (v "src" +: v "k"));
            set "k" (v "k" +: i 1);
          ];
        store8 (v "slot" +: v "k") (i 0);
        store64 (v "slot" +: i 64) (v "k");
        set "location_count" (v "location_count" +: i 1);
        ret0;
      ];
    func "ngx_add_upstream" [ "src" ]
      [
        decl "slot" (addr "upstreams" +: (v "upstream_count" *: i 32));
        decl "k" (i 0);
        while_
          ((load8 (v "src" +: v "k") <>: i 10)
          &&: (load8 (v "src" +: v "k") <>: i 0) &&: (v "k" <: i 31))
          [
            store8 (v "slot" +: v "k") (load8 (v "src" +: v "k"));
            set "k" (v "k" +: i 1);
          ];
        set "upstream_count" (v "upstream_count" +: i 1);
        ret0;
      ];
    (* a toy string hash used to seed the mime hash table *)
    func "ngx_hash" [ "p" ]
      [
        decl "h" (i 5381);
        decl "c" (load8 (v "p"));
        while_ (v "c" <>: i 0)
          [
            set "h" (((v "h" <<: i 5) +: v "h") ^: v "c");
            set "p" (v "p" +: i 1);
            set "c" (load8 (v "p"));
          ];
        ret (v "h" &: i 63);
      ];
    func "ngx_init_mime_hash" []
      [
        store64 (addr "mime_hash" +: (call "ngx_hash" [ s "html" ] *: i 8)) (i 1);
        store64 (addr "mime_hash" +: (call "ngx_hash" [ s "txt" ] *: i 8)) (i 2);
        store64 (addr "mime_hash" +: (call "ngx_hash" [ s "css" ] *: i 8)) (i 3);
        store64 (addr "mime_hash" +: (call "ngx_hash" [ s "js" ] *: i 8)) (i 4);
        store64 (addr "mime_hash" +: (call "ngx_hash" [ s "png" ] *: i 8)) (i 5);
        store64 (addr "mime_hash" +: (call "ngx_hash" [ s "svg" ] *: i 8)) (i 6);
        ret0;
      ];
    func "ngx_init_pool" []
      [
        set "pool_base" (call "mmap" [ i 0; i 131072; i 6 ]);
        decl "k" (i 0);
        while_ (v "k" <: i 16)
          [
            do_ "memset" [ v "pool_base" +: (v "k" *: i 4096); i 0; i 64 ];
            set "k" (v "k" +: i 1);
          ];
        ret (v "pool_base");
      ];
    (* the module init chain: each module "registers" itself *)
    func "ngx_module_core_init" []
      [ set "modules_inited" (v "modules_inited" +: i 1); ret0 ];
    func "ngx_module_http_init" []
      [
        do_ "ngx_init_mime_hash" [];
        set "modules_inited" (v "modules_inited" +: i 1);
        ret0;
      ];
    func "ngx_module_dav_init" []
      [
        do_ "memset" [ addr "dav_store"; i 0; i (8 * 168) ];
        set "modules_inited" (v "modules_inited" +: i 1);
        ret0;
      ];
    func "ngx_module_log_init" []
      [
        set "log_fd" (i 2);
        set "modules_inited" (v "modules_inited" +: i 1);
        ret0;
      ];
    func "ngx_module_rewrite_init" []
      [ set "modules_inited" (v "modules_inited" +: i 1); ret0 ];
    func "ngx_init_modules" []
      [
        do_ "ngx_module_core_init" [];
        do_ "ngx_module_http_init" [];
        do_ "ngx_module_dav_init" [];
        do_ "ngx_module_log_init" [];
        do_ "ngx_module_rewrite_init" [];
        ret (v "modules_inited");
      ];
    func "ngx_setup_listener" []
      [
        decl "sfd" (call "socket" []);
        do_ "bind" [ v "sfd"; v "cfg_port" ];
        do_ "listen" [ v "sfd" ];
        ret (v "sfd");
      ];
  ]

(* ---------- worker serving code ---------- *)

let serve_funcs () =
  [
    func "ngx_open_docfile" []
      [
        do_ "strcpy" [ addr "http_file"; addr "cfg_docroot" ];
        decl "n" (call "strlen" [ addr "http_file" ]);
        do_ "strcpy" [ addr "http_file" +: v "n"; addr "http_path" ];
        ret (call "open" [ addr "http_file" ]);
      ];
    func "ngx_find_dav" []
      [
        decl "k" (i 0);
        while_ (v "k" <: i 8)
          [
            decl "slot" (addr "dav_store" +: (v "k" *: i slot_size));
            when_
              ((load64 (v "slot" +: i (slot_name + slot_data)) ==: i 1)
              &&: (call "strcmp" [ v "slot"; addr "http_path" ] ==: i 0))
              [ ret (v "slot") ];
            set "k" (v "k" +: i 1);
          ];
        ret (i 0);
      ];
    func "ngx_http_get" [ "c" ]
      [
        decl "slot" (call "ngx_find_dav" []);
        when_ (v "slot" <>: i 0)
          [ ret (call "http_reply" [ v "c"; s Httplib.st_200; v "slot" +: i slot_name ]) ];
        decl "fd" (call "ngx_open_docfile" []);
        when_ (v "fd" <: i 0)
          [ ret (call "http_reply" [ v "c"; s Httplib.st_404; s "404" ]) ];
        decl "n" (call "read" [ v "fd"; addr "http_file"; i 255 ]);
        store8 (addr "http_file" +: v "n") (i 0);
        do_ "close" [ v "fd" ];
        ret (call "http_reply" [ v "c"; s Httplib.st_200; addr "http_file" ]);
      ];
    func "ngx_http_head" [ "c" ]
      [
        decl "fd" (call "ngx_open_docfile" []);
        when_ (v "fd" <: i 0) [ ret (call "http_reply" [ v "c"; s Httplib.st_404; i 0 ]) ];
        do_ "close" [ v "fd" ];
        ret (call "http_reply" [ v "c"; s Httplib.st_200; i 0 ]);
      ];
    func "ngx_http_post" [ "c" ]
      [
        decl "body" (call "http_body" []);
        when_ (v "body" ==: i 0)
          [ ret (call "http_reply" [ v "c"; s Httplib.st_200; s "empty" ]) ];
        ret (call "http_reply" [ v "c"; s Httplib.st_200; v "body" ]);
      ];
    func "ngx_dav_put" [ "c" ]
      [
        label "ngx_feat_put";
        decl "body" (call "http_body" []);
        when_ (v "body" ==: i 0)
          [ ret (call "http_reply" [ v "c"; s Httplib.st_403; s "no body" ]) ];
        decl "slot" (call "ngx_find_dav" []);
        when_ (v "slot" ==: i 0)
          [
            decl "k" (i 0);
            while_ ((v "k" <: i 8) &&: (v "slot" ==: i 0))
              [
                decl "cand" (addr "dav_store" +: (v "k" *: i slot_size));
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
        ret (call "http_reply" [ v "c"; s Httplib.st_201; s "created" ]);
      ];
    func "ngx_dav_delete" [ "c" ]
      [
        label "ngx_feat_delete";
        decl "slot" (call "ngx_find_dav" []);
        when_ (v "slot" ==: i 0) [ ret (call "http_reply" [ v "c"; s Httplib.st_404; i 0 ]) ];
        store64 (v "slot" +: i (slot_name + slot_data)) (i 0);
        ret (call "http_reply" [ v "c"; s Httplib.st_204; i 0 ]);
      ];
    (* Listing 1 from the paper: the DAV method dispatcher whose default
       returns NGX_DECLINED — here, the exported 403 error path *)
    func "ngx_http_dav_handler" [ "c"; "m" ]
      [
        switch (v "m")
          [
            (Httplib.m_put, [ do_ "ngx_dav_put" [ v "c" ] ]);
            (Httplib.m_delete, [ do_ "ngx_dav_delete" [ v "c" ] ]);
            ( Httplib.m_mkcol,
              [ do_ "http_reply" [ v "c"; s Httplib.st_201; s "collection" ] ] );
            ( Httplib.m_propfind,
              [ do_ "http_reply" [ v "c"; s Httplib.st_207; s "<multistatus/>" ] ] );
          ]
          ~default:
            [
              label "ngx_declined";
              do_ "http_reply" [ v "c"; s Httplib.st_403; s "forbidden" ];
            ];
        ret0;
      ];
    func "ngx_http_handler" [ "c" ]
      [
        (* TLS ClientHello on the plain port: never happens here *)
        when_ (load8 (addr "http_rbuf") ==: i 0x16)
          [ ret (call "ngx_ssl_handshake" [ v "c" ]) ];
        when_ (call "ngx_rate_limit_check" [ v "c" ] ==: i 0) [ ret (i 0) ];
        decl "m" (call "http_parse_method" []);
        do_ "http_parse_path" [];
        do_ "ngx_access_log" [ i 200 ];
        switch (v "m")
          [
            ( Httplib.m_get,
              [
                if_
                  (call "strncmp" [ addr "http_path"; s "/api/"; i 5 ] ==: i 0)
                  [ do_ "ngx_proxy_pass" [ v "c" ] ]
                  [
                    if_
                      (call "strncmp" [ addr "http_path"; s "/fcgi/"; i 6 ] ==: i 0)
                      [ do_ "ngx_fastcgi_pass" [ v "c" ] ]
                      [ do_ "ngx_http_get" [ v "c" ] ];
                  ];
              ] );
            (Httplib.m_head, [ do_ "ngx_http_head" [ v "c" ] ]);
            (Httplib.m_post, [ do_ "ngx_http_post" [ v "c" ] ]);
            (Httplib.m_put, [ do_ "ngx_http_dav_handler" [ v "c"; v "m" ] ]);
            (Httplib.m_delete, [ do_ "ngx_http_dav_handler" [ v "c"; v "m" ] ]);
            (Httplib.m_mkcol, [ do_ "ngx_http_dav_handler" [ v "c"; v "m" ] ]);
            (Httplib.m_propfind, [ do_ "ngx_http_dav_handler" [ v "c"; v "m" ] ]);
            ( Httplib.m_options,
              [ do_ "http_reply" [ v "c"; s Httplib.st_200; s "Allow: *" ] ] );
          ]
          ~default:
            [
              label "ngx_http_403";
              do_ "http_reply" [ v "c"; s Httplib.st_403; s "forbidden" ];
            ];
        ret0;
      ];
    (* -------- reachable-but-cold modules (ngx_http_ssl_module,
       ngx_http_gzip_module, fastcgi, limit_req, upstream) — the unused
       majority of a stock nginx build -------- *)
    func "ngx_ssl_handshake" [ "c" ]
      [
        (* a toy handshake transcript: echo a fixed ServerHello *)
        decl "k" (i 0);
        decl "h" (i 0x5A);
        while_ (v "k" <: i 16)
          [
            set "h" (((v "h" *: i 31) +: v "k") &: i 255);
            store8 (addr "http_obuf" +: v "k") (v "h");
            set "k" (v "k" +: i 1);
          ];
        do_ "send" [ v "c"; addr "http_obuf"; i 16 ];
        ret (neg (i 1));
      ];
    func "ngx_rate_limit_check" [ "c" ]
      [
        expr (v "c");
        (* limit_req is not configured: the hot path is this early return *)
        when_ (v "cfg_timeout" <: i 100000) [ ret (i 1) ];
        decl "bucket" (load64 (v "pool_base" +: i 64));
        when_ (v "bucket" >: i 100)
          [
            do_ "http_reply" [ v "c"; s "HTTP/1.0 429 Too Many Requests\r\n"; i 0 ];
            ret (i 0);
          ];
        store64 (v "pool_base" +: i 64) (v "bucket" +: i 1);
        ret (i 1);
      ];
    func "ngx_gzip_encode" [ "src"; "len" ]
      [
        decl "out" (v "pool_base" +: i 8192);
        decl "k" (i 0);
        decl "o" (i 0);
        while_ (v "k" <: v "len")
          [
            decl "ch" (load8 (v "src" +: v "k"));
            decl "run" (i 1);
            while_
              ((v "k" +: v "run" <: v "len")
              &&: (load8 (v "src" +: v "k" +: v "run") ==: v "ch"))
              [ set "run" (v "run" +: i 1) ];
            store8 (v "out" +: v "o") (v "run" &: i 255);
            store8 (v "out" +: v "o" +: i 1) (v "ch");
            set "o" (v "o" +: i 2);
            set "k" (v "k" +: v "run");
          ];
        ret (v "o");
      ];
    func "ngx_upstream_pick" []
      [
        when_ (v "upstream_count" ==: i 0) [ ret (i 0) ];
        decl "k" (load64 (v "pool_base" +: i 128) %: v "upstream_count");
        store64 (v "pool_base" +: i 128) (v "k" +: i 1);
        ret (addr "upstreams" +: (v "k" *: i 32));
      ];
    func "ngx_proxy_pass" [ "c" ]
      [
        decl "up" (call "ngx_upstream_pick" []);
        when_ (v "up" ==: i 0)
          [ ret (call "http_reply" [ v "c"; s "HTTP/1.0 502 Bad Gateway\r\n"; i 0 ]) ];
        (* no real upstream to dial in this deployment *)
        ret (call "http_reply" [ v "c"; s "HTTP/1.0 504 Gateway Timeout\r\n"; i 0 ]);
      ];
    func "ngx_fastcgi_pass" [ "c" ]
      [
        (* build a FCGI_BEGIN_REQUEST-shaped record *)
        store8 (addr "http_obuf") (i 1);
        store8 (addr "http_obuf" +: i 1) (i 1);
        store8 (addr "http_obuf" +: i 2) (i 0);
        store8 (addr "http_obuf" +: i 3) (i 1);
        ret (call "http_reply" [ v "c"; s "HTTP/1.0 502 Bad Gateway\r\n"; s "no fastcgi" ]);
      ];
    func "ngx_access_log" [ "status" ]
      [
        (* access_log off in this deployment: early return is the hot path *)
        when_ (v "log_fd" <: i 100) [ ret (i 0) ];
        do_ "strcpy" [ addr "http_file"; s "- - [t] \"" ];
        decl "n" (call "strlen" [ addr "http_file" ]);
        set "n" (v "n" +: call "itoa" [ addr "http_file" +: v "n"; v "status" ]);
        do_ "write" [ v "log_fd"; addr "http_file"; v "n" ];
        ret (v "n");
      ];
    (* worker-side initialization, then the event loop — the paper's
       transition point for Nginx is ngx_worker_process_cycle() *)
    func "ngx_worker_init" []
      [
        set "is_worker" (i 1);
        do_ "memset" [ addr "http_rbuf"; i 0; i 1024 ];
        ret0;
      ];
    func "ngx_worker_process_cycle" [ "sfd" ]
      [
        do_ "ngx_worker_init" [];
        forever
          [
            decl "c" (call "accept" [ v "sfd" ]);
            decl "n" (call "recv" [ v "c"; addr "http_rbuf"; i 1023 ]);
            when_ (v "n" >: i 0)
              [
                store8 (addr "http_rbuf" +: v "n") (i 0);
                do_ "ngx_http_handler" [ v "c" ];
              ];
            do_ "close" [ v "c" ];
          ];
        ret0;
      ];
    (* master monitor loop: wakes up periodically, like the real master *)
    func "ngx_master_cycle" []
      [
        forever [ do_ "nanosleep" [ i 1000000 ] ];
        ret0;
      ];
    func "main" []
      [
        do_ "ngx_read_config" [];
        do_ "ngx_parse_config" [];
        do_ "ngx_init_modules" [];
        do_ "ngx_init_pool" [];
        decl "sfd" (call "ngx_setup_listener" []);
        (* fork the worker (one, per the paper's configuration) *)
        decl "pid" (call "fork" []);
        when_ (v "pid" ==: i 0) [ do_ "ngx_worker_process_cycle" [ v "sfd" ]; ret0 ];
        do_ "puts" [ s ready_banner ];
        do_ "ngx_master_cycle" [];
        ret0;
      ];
  ]

let unit_ngx () =
  unit_ "ngx" ~globals:(globals ()) (Httplib.funcs () @ init_funcs () @ serve_funcs ())

let config =
  "listen 8090\nworker_processes 1\ngzip 1\nsendfile 1\nkeepalive_timeout 65\n\
   root /www\nlocation /\nlocation /static\nlocation /api\nupstream backend1\n\
   upstream backend2\n"

(** The files ngx reads besides its binary: its config and the docroot. *)
let files = ("/etc/nginx.conf", config) :: Ltpd.site_files
