(* Tests for AES-128 (FIPS-197 vectors), base64 (RFC 4648), and the EVP
   layer's native/virtine equivalence. *)

let hex s =
  let n = String.length s / 2 in
  Bytes.init n (fun i -> Char.chr (int_of_string ("0x" ^ String.sub s (2 * i) 2)))

let to_hex b =
  String.concat "" (List.init (Bytes.length b) (fun i -> Printf.sprintf "%02x" (Char.code (Bytes.get b i))))

(* FIPS-197 Appendix B *)
let fips_key = "\x2b\x7e\x15\x16\x28\xae\xd2\xa6\xab\xf7\x15\x88\x09\xcf\x4f\x3c"
let fips_plain = hex "3243f6a8885a308d313198a2e0370734"
let fips_cipher = "3925841d02dc09fbdc118597196a0b32"

let test_aes_fips197 () =
  let ks = Vcrypto.Aes.expand_key fips_key in
  let out = Vcrypto.Aes.encrypt_block ks fips_plain ~pos:0 in
  Alcotest.(check string) "FIPS-197 Appendix B" fips_cipher (to_hex out)

(* NIST SP 800-38A F.1.1: AES-128 ECB *)
let nist_key = "\x2b\x7e\x15\x16\x28\xae\xd2\xa6\xab\xf7\x15\x88\x09\xcf\x4f\x3c"

let nist_ecb_vectors =
  [
    ("6bc1bee22e409f96e93d7e117393172a", "3ad77bb40d7a3660a89ecaf32466ef97");
    ("ae2d8a571e03ac9c9eb76fac45af8e51", "f5d3d58503b9699de785895a96fdbaaf");
    ("30c81c46a35ce411e5fbc1191a0a52ef", "43b1cd7f598ece23881b00e3ed030688");
    ("f69f2445df4f9b17ad2b417be66c3710", "7b0c785e27e8ad3f8223207104725dd4");
  ]

let test_aes_nist_ecb () =
  let ks = Vcrypto.Aes.expand_key nist_key in
  List.iter
    (fun (p, c) ->
      let out = Vcrypto.Aes.encrypt_block ks (hex p) ~pos:0 in
      Alcotest.(check string) ("ECB " ^ p) c (to_hex out))
    nist_ecb_vectors

(* NIST SP 800-38A F.2.1: AES-128 CBC *)
let test_aes_nist_cbc () =
  let ks = Vcrypto.Aes.expand_key nist_key in
  let iv = hex "000102030405060708090a0b0c0d0e0f" in
  let plain = hex (String.concat "" (List.map fst nist_ecb_vectors)) in
  let expected =
    "7649abac8119b246cee98e9b12e9197d5086cb9b507219ee95db113a917678b2\
     73bed6b8e3c1743b7116e69e222295163ff1caa1681fac09120eca307586e1a7"
  in
  let out = Vcrypto.Aes.encrypt_cbc ks ~iv plain in
  Alcotest.(check string) "NIST CBC" expected (to_hex out)

let test_aes_decrypt_inverts () =
  let ks = Vcrypto.Aes.expand_key "0123456789abcdef" in
  let plain = Bytes.of_string "a secret message" in
  let enc = Vcrypto.Aes.encrypt_block ks plain ~pos:0 in
  let dec = Vcrypto.Aes.decrypt_block ks enc ~pos:0 in
  Alcotest.(check string) "block roundtrip" (Bytes.to_string plain) (Bytes.to_string dec)

let test_aes_bad_key_length () =
  Alcotest.check_raises "short key" (Invalid_argument "Aes.expand_key: key must be 16 bytes")
    (fun () -> ignore (Vcrypto.Aes.expand_key "short"))

let test_aes_bad_block_length () =
  let ks = Vcrypto.Aes.expand_key "0123456789abcdef" in
  match Vcrypto.Aes.encrypt_ecb ks (Bytes.create 15) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

let prop_ecb_roundtrip =
  QCheck.Test.make ~name:"ECB decrypt . encrypt = id" ~count:100
    QCheck.(pair (string_of_size (QCheck.Gen.return 16)) (list_of_size (QCheck.Gen.int_range 1 8) (QCheck.int_bound 255)))
    (fun (key, _) ->
      let ks = Vcrypto.Aes.expand_key key in
      let rng = Cycles.Rng.create ~seed:(Hashtbl.hash key) in
      let data = Bytes.init 64 (fun _ -> Char.chr (Cycles.Rng.int rng 256)) in
      Vcrypto.Aes.decrypt_ecb ks (Vcrypto.Aes.encrypt_ecb ks data) = data)

let prop_cbc_roundtrip =
  QCheck.Test.make ~name:"CBC decrypt . encrypt = id" ~count:100
    QCheck.(string_of_size (QCheck.Gen.return 16))
    (fun key ->
      let ks = Vcrypto.Aes.expand_key key in
      let rng = Cycles.Rng.create ~seed:(Hashtbl.hash key) in
      let iv = Bytes.init 16 (fun _ -> Char.chr (Cycles.Rng.int rng 256)) in
      let data = Bytes.init 80 (fun _ -> Char.chr (Cycles.Rng.int rng 256)) in
      Vcrypto.Aes.decrypt_cbc ks ~iv (Vcrypto.Aes.encrypt_cbc ks ~iv data) = data)

let prop_pkcs7_roundtrip =
  QCheck.Test.make ~name:"pkcs7 unpad . pad = id" ~count:200 QCheck.(string_of_size (QCheck.Gen.int_range 0 100))
    (fun s ->
      let b = Bytes.of_string s in
      match Vcrypto.Aes.pkcs7_unpad (Vcrypto.Aes.pkcs7_pad b) with
      | Some out -> out = b
      | None -> false)

let test_pkcs7_malformed () =
  Alcotest.(check bool) "zero pad byte invalid" true
    (Vcrypto.Aes.pkcs7_unpad (Bytes.make 16 '\000') = None);
  Alcotest.(check bool) "pad > 16 invalid" true
    (Vcrypto.Aes.pkcs7_unpad (Bytes.make 16 '\xFF') = None)

(* ------------------------------------------------------------------ *)
(* base64                                                               *)
(* ------------------------------------------------------------------ *)

let test_base64_rfc_vectors () =
  (* RFC 4648 §10 *)
  List.iter
    (fun (plain, enc) ->
      Alcotest.(check string) ("encode " ^ plain) enc (Vcrypto.Base64.encode plain);
      Alcotest.(check (option string)) ("decode " ^ enc) (Some plain) (Vcrypto.Base64.decode enc))
    [
      ("", "");
      ("f", "Zg==");
      ("fo", "Zm8=");
      ("foo", "Zm9v");
      ("foob", "Zm9vYg==");
      ("fooba", "Zm9vYmE=");
      ("foobar", "Zm9vYmFy");
    ]

let test_base64_binary () =
  let all = String.init 256 Char.chr in
  Alcotest.(check (option string)) "all byte values" (Some all)
    (Vcrypto.Base64.decode (Vcrypto.Base64.encode all))

let test_base64_invalid () =
  Alcotest.(check (option string)) "bad char" None (Vcrypto.Base64.decode "Zm9!");
  Alcotest.(check (option string)) "bad length" None (Vcrypto.Base64.decode "Zm9");
  Alcotest.(check (option string)) "pad in middle" None (Vcrypto.Base64.decode "Zg==Zm9v")

let prop_base64_roundtrip =
  QCheck.Test.make ~name:"base64 decode . encode = id" ~count:300 QCheck.string (fun s ->
      Vcrypto.Base64.decode (Vcrypto.Base64.encode s) = Some s)

(* ------------------------------------------------------------------ *)
(* EVP                                                                  *)
(* ------------------------------------------------------------------ *)

let test_evp_native_virtine_equal () =
  let key = "0123456789abcdef" in
  let iv = Bytes.make 16 '\001' in
  let data = Bytes.of_string "the quick brown fox jumps over the lazy dog" in
  let native = Vcrypto.Evp.create Vcrypto.Evp.Native ~key in
  let w = Wasp.Runtime.create () in
  let virt = Vcrypto.Evp.create (Vcrypto.Evp.Virtine w) ~key in
  let a = Vcrypto.Evp.encrypt native ~iv data in
  let b = Vcrypto.Evp.encrypt virt ~iv data in
  Alcotest.(check string) "identical ciphertext" (to_hex a) (to_hex b)

let test_evp_virtine_charges_cycles () =
  let w = Wasp.Runtime.create () in
  let virt = Vcrypto.Evp.create (Vcrypto.Evp.Virtine w) ~key:"0123456789abcdef" in
  let iv = Bytes.make 16 '\000' in
  let before = Cycles.Clock.now (Wasp.Runtime.clock w) in
  ignore (Vcrypto.Evp.encrypt virt ~iv (Bytes.create 1024));
  let spent = Int64.sub (Cycles.Clock.now (Wasp.Runtime.clock w)) before in
  Alcotest.(check bool) "charged" true (spent > 0L)

let test_evp_snapshot_amortizes () =
  let w = Wasp.Runtime.create () in
  let virt = Vcrypto.Evp.create (Vcrypto.Evp.Virtine w) ~key:"0123456789abcdef" in
  let iv = Bytes.make 16 '\000' in
  let clock = Wasp.Runtime.clock w in
  let timed f =
    let t0 = Cycles.Clock.now clock in
    f ();
    Int64.sub (Cycles.Clock.now clock) t0
  in
  let first = timed (fun () -> ignore (Vcrypto.Evp.encrypt virt ~iv (Bytes.create 256))) in
  let second = timed (fun () -> ignore (Vcrypto.Evp.encrypt virt ~iv (Bytes.create 256))) in
  Alcotest.(check bool)
    (Printf.sprintf "second (%Ld) cheaper than first (%Ld)" second first)
    true (second < first)

let qsuite name tests = (name, List.map (fun t -> QCheck_alcotest.to_alcotest t) tests)

let () =
  Alcotest.run "vcrypto"
    [
      ( "aes",
        [
          Alcotest.test_case "FIPS-197 appendix B" `Quick test_aes_fips197;
          Alcotest.test_case "NIST ECB vectors" `Quick test_aes_nist_ecb;
          Alcotest.test_case "NIST CBC vector" `Quick test_aes_nist_cbc;
          Alcotest.test_case "decrypt inverts" `Quick test_aes_decrypt_inverts;
          Alcotest.test_case "bad key length" `Quick test_aes_bad_key_length;
          Alcotest.test_case "bad block length" `Quick test_aes_bad_block_length;
          Alcotest.test_case "malformed pkcs7" `Quick test_pkcs7_malformed;
        ] );
      qsuite "aes-properties" [ prop_ecb_roundtrip; prop_cbc_roundtrip; prop_pkcs7_roundtrip ];
      ( "base64",
        [
          Alcotest.test_case "RFC 4648 vectors" `Quick test_base64_rfc_vectors;
          Alcotest.test_case "binary roundtrip" `Quick test_base64_binary;
          Alcotest.test_case "invalid input" `Quick test_base64_invalid;
        ] );
      qsuite "base64-properties" [ prop_base64_roundtrip ];
      ( "evp",
        [
          Alcotest.test_case "native = virtine ciphertext" `Quick test_evp_native_virtine_equal;
          Alcotest.test_case "virtine charges cycles" `Quick test_evp_virtine_charges_cycles;
          Alcotest.test_case "snapshot amortizes" `Quick test_evp_snapshot_amortizes;
        ] );
    ]
