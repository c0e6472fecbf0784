//! The §II XOR-encryption application: one-time-pad crypto with the
//! XOR executed by Scouting Logic, served by the `cim-runtime` pool.
//!
//! Run with: `cargo run --example xor_encrypt`

use cim_runtime::{
    JobOutput, JobReport, PoolClient, PoolConfig, RuntimePool, TenantId, WorkloadSpec,
};
use cim_xor_cipher::otp::OneTimePad;

/// Seed the pool derives the pad from, as `OneTimePad::generate` does.
const KEY_SEED: u64 = 1337;

/// XORs `message` with the pad of `KEY_SEED` in the array.
fn xor_in_memory(session: &PoolClient, message: &[u8]) -> (Vec<u8>, JobReport) {
    let report = session
        .submit(&WorkloadSpec::XorEncrypt {
            message: message.to_vec(),
            key_seed: KEY_SEED,
        })
        .expect("message fits the pool")
        .wait();
    let Ok(JobOutput::Cipher(bytes)) = &report.output else {
        panic!("XOR job failed: {:?}", report.output);
    };
    (bytes.clone(), report)
}

fn main() {
    let message = b"computation-in-memory turns the memory wall into a feature.";
    let pad = OneTimePad::generate(message.len(), KEY_SEED);

    // Software reference.
    let ct_sw = pad.encrypt(message).expect("length matches pad");

    // In the array: each tile-width chunk writes a message row and a key
    // row, and one two-row scouting XOR access senses the ciphertext.
    let pool = RuntimePool::new(PoolConfig::with_shards(1));
    let session = pool.client(TenantId(1));
    let (ct_hw, report) = xor_in_memory(&session, message);
    assert_eq!(ct_sw, ct_hw, "software and CIM ciphertexts must agree");

    println!("plaintext:  {}", String::from_utf8_lossy(message));
    println!("ciphertext: {}", hex(&ct_hw));
    println!(
        "CIM cost: {} over {} array accesses ({} row writes)",
        report.stats.energy, report.stats.logic_ops, report.stats.row_writes
    );

    // XOR is an involution: the same pad turns the ciphertext back.
    let (recovered, _) = xor_in_memory(&session, &ct_hw);
    println!("decrypted:  {}", String::from_utf8_lossy(&recovered));
    assert_eq!(recovered, message.to_vec());

    // The classic warning: never reuse a one-time pad.
    let other = b"reusing a one-time pad key leaks the xor of the texts!!!!!!";
    let ct2 = pad.encrypt(other).expect("length matches pad");
    let leak: Vec<u8> = ct_hw.iter().zip(&ct2).map(|(a, b)| a ^ b).collect();
    let zeros = leak.iter().filter(|&&b| b == 0).count();
    println!(
        "\nkey reuse demo: ciphertext XOR reveals {zeros}/{} identical plaintext bytes",
        leak.len()
    );
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}
